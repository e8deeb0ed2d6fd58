package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.model._
import repro.core.model.CmpOp._
import repro.core.phase2.{ConflictGraph, R1Tuple}

/** DC semantics, checked through the compiled evaluator on R1 tuples. */
class DenialConstraintSpec extends AnyFunSuite {
  private val ownerOwner = DenialConstraint("oo",
    Seq(SelCond(Seq(CatEq("Rel", "Owner"))), SelCond(Seq(CatEq("Rel", "Owner")))), Nil)

  private val spouseGap = DenialConstraint("gap",
    Seq(SelCond(Seq(CatEq("Rel", "Owner"))), SelCond(Seq(CatEq("Rel", "Spouse")))),
    Seq(CrossCond(1, "Age", Lt, 0, "Age", -50)))

  private val schema = R1Schema("pid", Seq("Rel"), Seq("Age"), "hid")

  private def t(rel: String, age: Int): R1Tuple = R1Tuple(0L, 0L, Array(rel), Array(age))

  /** Would `ts` violate `dc` if they shared a foreign key? */
  private def fires(dc: DenialConstraint, ts: R1Tuple*): Boolean =
    ConflictGraph.compile(Seq(dc), schema).edges(ts.toIndexedSeq).nonEmpty

  test("arity must be at least 2") {
    assertThrows[IllegalArgumentException](
      DenialConstraint("x", Seq(SelCond.empty), Nil))
  }
  test("two owners violate the owner-owner body") {
    assert(fires(ownerOwner, t("Owner", 40), t("Owner", 50)))
  }
  test("owner + spouse does not trigger owner-owner") {
    assert(!fires(ownerOwner, t("Owner", 40), t("Spouse", 50)))
  }
  test("cross condition: spouse 51 years younger violates") {
    assert(fires(spouseGap, t("Owner", 80), t("Spouse", 29)))
  }
  test("cross condition: spouse exactly 50 years younger is fine") {
    assert(!fires(spouseGap, t("Owner", 80), t("Spouse", 30)))
  }
  test("slot order matters for asymmetric DCs") {
    // The same atom with its slots swapped reads t_owner.Age < t_spouse.Age − 50.
    val swapped = spouseGap.copy(cross = Seq(CrossCond(0, "Age", Lt, 1, "Age", -50)))
    assert(!fires(swapped, t("Owner", 80), t("Spouse", 29)))
    assert(fires(swapped, t("Owner", 29), t("Spouse", 80)))
  }
  test("cross atom on a slot outside the DC is rejected at compile time") {
    val bad = spouseGap.copy(cross = Seq(CrossCond(2, "Age", Lt, 0, "Age", 0)))
    assertThrows[IllegalArgumentException](ConflictGraph.compile(Seq(bad), schema))
  }
  test("all comparison operators evaluate correctly") {
    assert(Lt.eval(1, 2) && !Lt.eval(2, 2))
    assert(Gt.eval(3, 2) && !Gt.eval(2, 2))
    assert(Le.eval(2, 2) && !Le.eval(3, 2))
    assert(Ge.eval(2, 2) && !Ge.eval(1, 2))
    assert(EqOp.eval(2, 2) && !EqOp.eval(1, 2))
    assert(Ne.eval(1, 2) && !Ne.eval(2, 2))
  }
  test("arity-3 DC with pairwise equality crosses") {
    val sameCls = DenialConstraint("cls",
      Seq(SelCond.empty, SelCond.empty, SelCond.empty),
      Seq(CrossCond(0, "Cls", EqOp, 1, "Cls", 0), CrossCond(1, "Cls", EqOp, 2, "Cls", 0)))
    val clsSchema = R1Schema("tid", Nil, Seq("Cls"), "fk")
    def u(c: Int) = R1Tuple(0L, 0L, Array.empty, Array(c))
    val compiled = ConflictGraph.compile(Seq(sameCls), clsSchema)
    assert(compiled.edges(IndexedSeq(u(1), u(1), u(1))) == Vector(Vector(0, 1, 2)))
    assert(compiled.edges(IndexedSeq(u(1), u(1), u(2))).isEmpty)
  }
  test("cross atom on an attribute R1 lacks is rejected at compile time") {
    val bad = spouseGap.copy(cross = Seq(CrossCond(1, "Income", Lt, 0, "Age", 0)))
    assertThrows[IllegalArgumentException](ConflictGraph.compile(Seq(bad), schema))
  }
}
