package repro.core

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropSupport._
import repro.census.{CensusSchema, ConstraintGen}
import repro.core.model._
import repro.core.model.CmpOp._
import repro.core.phase2.{ConflictGraph, R1Tuple}

class ConflictGraphSpec extends AnyFunSuite {
  import ConflictGraphSpec.P

  private val ownerOwner = DenialConstraint("oo",
    Seq(SelCond(Seq(CatEq("Rel", "Owner"))), SelCond(Seq(CatEq("Rel", "Owner")))), Nil)
  private val spouseGapLow = DenialConstraint("gapLow",
    Seq(SelCond(Seq(CatEq("Rel", "Owner"))), SelCond(Seq(CatEq("Rel", "Spouse")))),
    Seq(CrossCond(1, "Age", Lt, 0, "Age", -50)))

  private def t(rel: String, age: Int): Map[String, Any] = Map("Rel" -> rel, "Age" -> age)

  test("two owners create one deduplicated edge") {
    val edges = ConflictGraph.edges(IndexedSeq(t("Owner", 40), t("Owner", 50)), Seq(ownerOwner))
    assert(edges == Vector(Vector(0, 1)))
  }

  test("three owners create a triangle") {
    val edges = ConflictGraph.edges(
      IndexedSeq(t("Owner", 40), t("Owner", 50), t("Owner", 60)), Seq(ownerOwner))
    assert(edges.toSet == Set(Vector(0, 1), Vector(0, 2), Vector(1, 2)))
  }

  test("owner and spouse with acceptable gap: no edge") {
    val edges = ConflictGraph.edges(
      IndexedSeq(t("Owner", 60), t("Spouse", 40)), Seq(spouseGapLow))
    assert(edges.isEmpty)
  }

  test("asymmetric DC matches in the violating orientation") {
    val edges = ConflictGraph.edges(
      IndexedSeq(t("Spouse", 20), t("Owner", 90)), Seq(spouseGapLow))
    assert(edges == Vector(Vector(0, 1)))
  }

  test("multiple DCs accumulate edges without duplicates") {
    val tuples = IndexedSeq(t("Owner", 90), t("Owner", 30), t("Spouse", 20))
    val edges = ConflictGraph.edges(tuples, Seq(ownerOwner, spouseGapLow))
    // owner-owner edge (0,1); spouse too young for owner 90 → (0,2)
    assert(edges.toSet == Set(Vector(0, 1), Vector(0, 2)))
  }

  test("slot filtering: unrelated tuples produce no candidates") {
    val tuples = IndexedSeq(t("Sibling", 40), t("Housemate", 30))
    assert(ConflictGraph.edges(tuples, Seq(ownerOwner, spouseGapLow)).isEmpty)
  }

  test("arity-3 DC produces hyperedges of size 3") {
    val sameCls = DenialConstraint("cls",
      Seq(SelCond.empty, SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "Cls", EqOp, 1, "Cls", 0), CrossCond(1, "Cls", EqOp, 2, "Cls", 0)))
    def u(i: Int, c: Int): Map[String, Any] = Map("Cls" -> c, "id" -> i)
    val tuples = IndexedSeq(u(0, 1), u(1, 1), u(2, 1), u(3, 2))
    val edges = ConflictGraph.edges(tuples, Seq(sameCls))
    assert(edges == Vector(Vector(0, 1, 2)))
  }

  test("empty tuple set and empty DC set both give no edges") {
    assert(ConflictGraph.edges(IndexedSeq.empty, Seq(ownerOwner)).isEmpty)
    assert(ConflictGraph.edges(IndexedSeq(t("Owner", 40)), Nil).isEmpty)
  }

  test("a single tuple never forms an edge with itself") {
    assert(ConflictGraph.edges(IndexedSeq(t("Owner", 40)), Seq(ownerOwner)).isEmpty)
  }

  test("paper Figure 7: owners 1,2 conflict; child pair does not") {
    // Tuples 1,2 are both owners; 6,7 are children (no DC among children)
    val tuples = IndexedSeq(t("Owner", 75), t("Owner", 75), t("Child", 10), t("Child", 10))
    val edges = ConflictGraph.edges(tuples, Seq(ownerOwner))
    assert(edges == Vector(Vector(0, 1)))
  }

  // ---- compile-time rejection

  private val census = CensusSchema.schema.r1

  test("a slot predicate on an attribute R1 lacks is rejected at compile time") {
    val dc = DenialConstraint("x", Seq(SelCond(Seq(CatEq("Tenure", "Owned"))), SelCond.empty), Nil)
    val e = intercept[IllegalArgumentException](ConflictGraph.compile(Seq(dc), census))
    assert(e.getMessage.contains("Tenure"))
  }

  test("a cross atom on a categorical attribute is rejected at compile time") {
    val dc = DenialConstraint("x", Seq(SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "Rel", EqOp, 1, "Rel", 0)))
    val e = intercept[IllegalArgumentException](ConflictGraph.compile(Seq(dc), census))
    assert(e.getMessage.contains("Rel"))
  }

  test("a range on a categorical attribute is rejected at compile time") {
    val dc = DenialConstraint("x", Seq(SelCond(Seq(NumRange("MultiLing", 0, 1))), SelCond.empty), Nil)
    assertThrows[IllegalArgumentException](ConflictGraph.compile(Seq(dc), census))
  }

  // ---- compiled evaluator vs a naive reference

  private val pGen: Gen[P] = for {
    rel <- Gen.frequency(3 -> Gen.const(CensusSchema.Owner), 1 -> Gen.oneOf(CensusSchema.Rels))
    ml <- Gen.oneOf("0", "1")
    age <- Gen.choose(0, CensusSchema.MaxAge)
    v <- Gen.choose(1, 3); alpha <- Gen.choose(0, 1); cls <- Gen.choose(1, 3)
  } yield P(rel, ml, age, v, alpha, cls)

  /** Every ordered assignment of distinct tuples to a DC's slots, tested
    * straight from the `SelCond` / `CrossCond` fields by attribute name.
    */
  private def naiveEdges(ps: IndexedSeq[P], dcs: Seq[DenialConstraint]): Set[Vector[Int]] = {
    def num(p: P, a: String): Int = p.value(a).asInstanceOf[Int]
    def slotHolds(cond: SelCond, p: P): Boolean = cond.preds.forall {
      case CatEq(a, v)         => p.value(a) == v
      case NumRange(a, lo, hi) => lo <= num(p, a) && num(p, a) <= hi
    }
    def crossHolds(c: CrossCond, l: Int, r: Int): Boolean = c.op match {
      case Lt => l < r; case Gt => l > r; case Le => l <= r
      case Ge => l >= r; case EqOp => l == r; case Ne => l != r
    }
    (for {
      dc <- dcs
      chosen <- ps.indices.combinations(dc.arity).flatMap(_.permutations)
      if dc.slots.indices.forall(s => slotHolds(dc.slots(s), ps(chosen(s))))
      if dc.cross.forall(c => crossHolds(c, num(ps(chosen(c.i)), c.attrI),
                                         num(ps(chosen(c.j)), c.attrJ) + c.offset))
    } yield chosen.sorted.toVector).toSet
  }

  test("property: compiled edges equal the naive reference under S_DC_all and the NAE DCs") {
    val dcs = ConstraintGen.sdcAll ++ ReductionSpec.dcs
    // Attribute order differs from the generator's, so a position mix-up shows.
    val schema = R1Schema("pid", Seq("MultiLing", "Rel"), Seq("Cls", "Age", "Alpha", "Var"), "hid")
    val compiled = ConflictGraph.compile(dcs, schema)
    checkProp(Gen.choose(0, 9).flatMap(n => Gen.listOfN(n, pGen))) { ps =>
      val tuples = ps.toIndexedSeq.zipWithIndex.map { case (p, i) =>
        R1Tuple(0L, i.toLong, Array(p.ml, p.rel), Array(p.cls, p.age, p.alpha, p.v))
      }
      val edges = compiled.edges(tuples)
      edges.distinct.size == edges.size && edges.forall(e => e == e.sorted) &&
        edges.toSet == naiveEdges(ps.toIndexedSeq, dcs)
    }
  }
}

object ConflictGraphSpec {
  /** A census-like person with the reduction's numeric attributes. */
  final case class P(rel: String, ml: String, age: Int, v: Int, alpha: Int, cls: Int) {
    def value(a: String): Any = a match {
      case "Rel" => rel; case "MultiLing" => ml; case "Age" => age
      case "Var" => v; case "Alpha" => alpha; case "Cls" => cls
    }
  }
}
