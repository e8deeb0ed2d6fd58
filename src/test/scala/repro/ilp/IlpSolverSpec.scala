package repro.ilp

import org.scalatest.funsuite.AnyFunSuite

class IlpSolverSpec extends AnyFunSuite {

  test("consistent system is solved exactly") {
    val inst = CountIlp(3,
      IndexedSeq(SoftRow(Map(0 -> 1.0, 1 -> 1.0), 7), SoftRow(Map(1 -> 1.0, 2 -> 1.0), 5),
                 SoftRow(Map(0 -> 1.0, 2 -> 1.0), 4)),
      IndexedSeq.empty)
    val s = IlpSolver.solve(inst)
    assert(s.exact && s.l1Error == 0.0)
    assert(s.x.toSeq == Seq(3L, 4L, 1L))
  }

  test("inconsistent target yields minimal L1 deviation") {
    // x0 = 3 and x0 = 5 simultaneously → best deviation is 2
    val inst = CountIlp(1,
      IndexedSeq(SoftRow(Map(0 -> 1.0), 3), SoftRow(Map(0 -> 1.0), 5)),
      IndexedSeq.empty)
    val s = IlpSolver.solve(inst)
    assert(!s.exact)
    assert(s.l1Error == 2.0)
  }

  test("hard availability rows are never violated") {
    // want x0 = 10 but only 6 available
    val inst = CountIlp(1,
      IndexedSeq(SoftRow(Map(0 -> 1.0), 10)),
      IndexedSeq(LpRow(Map(0 -> 1.0), RowSense.Le, 6.0)))
    val s = IlpSolver.solve(inst)
    assert(s.x(0) <= 6)
    assert(s.l1Error == 4.0)
  }

  test("solution is non-negative") {
    val inst = CountIlp(2,
      IndexedSeq(SoftRow(Map(0 -> 1.0, 1 -> 1.0), 0), SoftRow(Map(0 -> 1.0), 3)),
      IndexedSeq.empty)
    val s = IlpSolver.solve(inst)
    assert(s.x.forall(_ >= 0))
  }

  test("zero targets give zero solution") {
    val inst = CountIlp(4,
      IndexedSeq.tabulate(4)(i => SoftRow(Map(i -> 1.0), 0)),
      IndexedSeq.empty)
    val s = IlpSolver.solve(inst)
    assert(s.x.forall(_ == 0L) && s.exact)
  }

  test("l1 helper computes deviations") {
    val inst = CountIlp(2,
      IndexedSeq(SoftRow(Map(0 -> 1.0), 3), SoftRow(Map(1 -> 1.0), 2)),
      IndexedSeq.empty)
    assert(IlpSolver.l1(inst, Array(1L, 2L)) == 2.0)
    assert(IlpSolver.l1(inst, Array(3L, 2L)) == 0.0)
  }

  test("marginal-style block system: CC rows plus per-bin totals") {
    // 2 bins × 2 combos; bin totals 10 and 6 (soft eq); CC wants combo0 = 8
    // vars: x00 x01 x10 x11
    val inst = CountIlp(4,
      IndexedSeq(
        SoftRow(Map(0 -> 1.0, 2 -> 1.0), 8),          // CC over combo 0
        SoftRow(Map(0 -> 1.0, 1 -> 1.0), 10),          // bin0 marginal
        SoftRow(Map(2 -> 1.0, 3 -> 1.0), 6)),          // bin1 marginal
      IndexedSeq(
        LpRow(Map(0 -> 1.0, 1 -> 1.0), RowSense.Le, 10.0),
        LpRow(Map(2 -> 1.0, 3 -> 1.0), RowSense.Le, 6.0)))
    val s = IlpSolver.solve(inst)
    assert(s.exact, s"expected exact, got l1=${s.l1Error}, x=${s.x.toSeq}")
    assert(s.x(0) + s.x(2) == 8)
    assert(s.x(0) + s.x(1) == 10 && s.x(2) + s.x(3) == 6)
  }

  test("random consistent 0/1 systems are solved with zero error") {
    val rng = new scala.util.Random(11)
    (0 until 5).foreach { trial =>
      val n = 12; val m = 6
      val xTrue = Array.fill(n)(rng.nextInt(4).toLong)
      val soft = IndexedSeq.tabulate(m) { _ =>
        val coeffs = (0 until n).filter(_ => rng.nextBoolean()).map(_ -> 1.0).toMap
        SoftRow(coeffs, coeffs.keys.map(xTrue(_).toDouble).sum)
      }
      val s = IlpSolver.solve(CountIlp(n, soft, IndexedSeq.empty))
      assert(s.l1Error == 0.0, s"trial $trial: l1=${s.l1Error}")
    }
  }

  test("random systems with hard caps stay feasible") {
    val rng = new scala.util.Random(23)
    (0 until 5).foreach { _ =>
      val n = 8
      val soft = IndexedSeq.tabulate(4) { _ =>
        val coeffs = (0 until n).filter(_ => rng.nextBoolean()).map(_ -> 1.0).toMap
        SoftRow(coeffs, rng.nextInt(20).toDouble)
      }
      val hard = IndexedSeq.tabulate(3) { _ =>
        val coeffs = (0 until n).filter(_ => rng.nextBoolean()).map(_ -> 1.0).toMap
        LpRow(coeffs, RowSense.Le, rng.nextInt(10).toDouble)
      }
      val s = IlpSolver.solve(CountIlp(n, soft, hard))
      hard.foreach { r =>
        assert(r.coeffs.map { case (j, a) => a * s.x(j) }.sum <= r.rhs + 1e-9)
      }
    }
  }
}
