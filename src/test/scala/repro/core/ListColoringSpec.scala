package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport._
import repro.core.phase2.ListColoring

class ListColoringSpec extends AnyFunSuite {

  private def properPairwise(edges: Seq[Vector[Int]], colors: Map[Int, Long]): Boolean =
    edges.forall { e =>
      val cs = e.flatMap(colors.get)
      cs.size < e.size || cs.distinct.size > 1
    }

  test("triangle with 3 colors gets a proper coloring") {
    val edges = IndexedSeq(Vector(0, 1), Vector(1, 2), Vector(0, 2))
    val (c, s) = ListColoring.colorLF(3, edges, Map.empty, IndexedSeq(1L, 2L, 3L))
    assert(s.isEmpty)
    assert(properPairwise(edges, c))
    assert(c.values.toSet.size == 3)
  }

  test("triangle with 2 colors skips one vertex") {
    val edges = IndexedSeq(Vector(0, 1), Vector(1, 2), Vector(0, 2))
    val (c, s) = ListColoring.colorLF(3, edges, Map.empty, IndexedSeq(1L, 2L))
    assert(s.size == 1)
    assert(properPairwise(edges, c))
  }

  test("no edges: everyone gets the smallest color") {
    val (c, s) = ListColoring.colorLF(4, IndexedSeq.empty, Map.empty, IndexedSeq(5L, 9L))
    assert(s.isEmpty)
    assert(c.values.forall(_ == 5L))
  }

  test("empty palette skips every uncolored vertex") {
    val (c, s) = ListColoring.colorLF(3, IndexedSeq.empty, Map.empty, IndexedSeq.empty)
    assert(c.isEmpty && s.toSet == Set(0, 1, 2))
  }

  test("initial colors are kept and respected") {
    val edges = IndexedSeq(Vector(0, 1))
    val (c, s) = ListColoring.colorLF(2, edges, Map(0 -> 7L), IndexedSeq(7L, 8L))
    assert(s.isEmpty)
    assert(c(0) == 7L && c(1) == 8L)
  }

  test("highest-degree vertex is colored first (paper Example 5.3 shape)") {
    // star: center 0 with leaves 1..4; center must get color 1
    val edges = IndexedSeq(Vector(0, 1), Vector(0, 2), Vector(0, 3), Vector(0, 4))
    val (c, s) = ListColoring.colorLF(5, edges, Map.empty, IndexedSeq(1L, 2L))
    assert(s.isEmpty)
    assert(c(0) == 1L)
    assert((1 to 4).forall(c(_) == 2L))
  }

  test("hyperedge forbids a color only when all others share it") {
    // edge {0,1,2}: color 0 and 1 the same, then 2 must differ
    val edges = IndexedSeq(Vector(0, 1, 2))
    val (c, s) = ListColoring.colorLF(3, edges, Map(0 -> 1L, 1 -> 1L), IndexedSeq(1L, 2L))
    assert(s.isEmpty)
    assert(c(2) == 2L)
  }

  test("hyperedge with mixed others does not forbid") {
    val edges = IndexedSeq(Vector(0, 1, 2))
    val (c, s) = ListColoring.colorLF(3, edges, Map(0 -> 1L, 1 -> 2L), IndexedSeq(1L))
    assert(s.isEmpty)
    assert(c(2) == 1L) // others have different colors → edge can never be monochromatic
  }

  test("palette is tried in ascending order regardless of input order") {
    val (c, _) = ListColoring.colorLF(1, IndexedSeq.empty, Map.empty, IndexedSeq(9L, 3L, 7L))
    assert(c(0) == 3L)
  }

  // ---- property: greedy coloring of random graphs is always proper
  private val graphGen: Gen[(Int, IndexedSeq[Vector[Int]], Int)] = for {
    n <- Gen.choose(2, 14)
    density <- Gen.choose(1, 4)
    k <- Gen.choose(1, 6)
    seed <- Gen.choose(0L, Long.MaxValue)
  } yield {
    val rng = new scala.util.Random(seed)
    val edges = (for {
      i <- 0 until n; j <- (i + 1) until n
      if rng.nextInt(4) < density
    } yield Vector(i, j)).toIndexedSeq
    (n, edges, k)
  }

  test("property: colored subgraph is always properly colored") {
    checkProp(graphGen) { case (n, edges, k) =>
      val palette = (1L to k.toLong).toIndexedSeq
      val (c, s) = ListColoring.colorLF(n, edges, Map.empty, palette)
      properPairwise(edges, c) && (c.keySet ++ s.toSet) == (0 until n).toSet
    }
  }

  test("property: with n colors nothing is skipped on pairwise graphs") {
    checkProp(graphGen) { case (n, edges, _) =>
      val palette = (1L to n.toLong).toIndexedSeq
      val (c, s) = ListColoring.colorLF(n, edges, Map.empty, palette)
      s.isEmpty && properPairwise(edges, c)
    }
  }

  // ---- property: |uncolored| fresh colors always suffice (Algorithm 4's
  // fresh-key pass), whatever the initial coloring and with 3-vertex edges
  private val hypergraphGen: Gen[(Int, IndexedSeq[Vector[Int]], Map[Int, Long])] = for {
    n <- Gen.choose(2, 12)
    seed <- Gen.choose(0L, Long.MaxValue)
  } yield {
    val rng = new scala.util.Random(seed)
    val pairs = for (i <- 0 until n; j <- (i + 1) until n if rng.nextInt(3) == 0) yield Vector(i, j)
    val triples = for (i <- 0 until n; j <- (i + 1) until n; k <- (j + 1) until n
                       if rng.nextInt(6) == 0) yield Vector(i, j, k)
    val initial = (0 until n).filter(_ => rng.nextBoolean()).map(_ -> (1L + rng.nextInt(3))).toMap
    (n, (pairs ++ triples).toIndexedSeq, initial)
  }

  test("property: as many fresh colors as uncolored vertices skip no vertex") {
    checkProp(hypergraphGen) { case (n, edges, initial) =>
      val fresh = (1L to (n - initial.size).toLong).map(_ + 1000L)
      val (c, s) = ListColoring.colorLF(n, edges, initial, fresh)
      s.isEmpty && c.size == n && edges.forall { e =>
        e.forall(initial.contains) || e.map(c).distinct.size > 1
      }
    }
  }

  // ---- property: Algorithm 4's single pass. Fresh colors above the palette
  // change no palette choice and color exactly the vertices a palette-only
  // pass skips, as a second pass over |skipped| fresh colors would.
  private val paletteGen: Gen[IndexedSeq[Long]] =
    Gen.choose(0, 4).flatMap(k => Gen.listOfN(k, Gen.choose(1L, 9L))).map(_.distinct.toIndexedSeq)

  test("property: one pass over palette ++ fresh colors equals a palette pass then a fresh pass") {
    checkProp(hypergraphGen, paletteGen) { case ((n, edges, _), palette) =>
      val fresh = (1L to n.toLong).map(_ + 1000L)
      val (c1, skipped) = ListColoring.colorLF(n, edges, Map.empty, palette)
      val (twoPass, _) = ListColoring.colorLF(n, edges, c1, fresh.take(skipped.size))
      val (onePass, s) = ListColoring.colorLF(n, edges, Map.empty, palette ++ fresh)
      s.isEmpty && (0 until n).forall(v => onePass.get(v) == twoPass.get(v))
    }
  }
}
