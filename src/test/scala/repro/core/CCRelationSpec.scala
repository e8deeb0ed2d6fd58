package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ccrel.CCRelation._
import repro.core.model._

class CCRelationSpec extends AnyFunSuite {
  private val schema = DbSchema(
    R1Schema("pid", Seq("Rel", "MultiLing"), Seq("Age"), "hid"),
    R2Schema("hid", Seq("Tenure", "Area")))

  private def cc(id: String, preds: Pred*): CardinalityConstraint =
    CardinalityConstraint(id, SelCond(preds), 1)

  private val ownerChi = cc("1", CatEq("Rel", "Owner"), CatEq("Area", "Chicago"))
  private val ownerNyc = cc("2", CatEq("Rel", "Owner"), CatEq("Area", "NYC"))
  private val youngChi = cc("3", NumRange("Age", 0, 24), CatEq("Area", "Chicago"))
  private val mlChi = cc("4", CatEq("MultiLing", "1"), CatEq("Area", "Chicago"))

  test("identical R1, disjoint R2 → Disjoint (Def 4.2 second case)") {
    assert(relate(ownerChi, ownerNyc, schema) == Disjoint)
  }
  test("disjoint R1 conditions → Disjoint (Def 4.2 first case)") {
    val a = cc("a", CatEq("Rel", "Owner"), CatEq("Area", "Chicago"))
    val b = cc("b", CatEq("Rel", "Spouse"), CatEq("Area", "Chicago"))
    assert(relate(a, b, schema) == Disjoint)
  }
  test("disjoint age intervals → Disjoint") {
    val a = cc("a", NumRange("Age", 10, 14), CatEq("Area", "Chicago"))
    val b = cc("b", NumRange("Age", 50, 60), CatEq("Area", "NYC"))
    assert(relate(a, b, schema) == Disjoint)
  }
  test("paper Fig 6: CC4 ⊆ CC3") {
    val cc3 = cc("3", NumRange("Age", 13, 64), CatEq("Area", "Chicago"))
    val cc4 = cc("4", NumRange("Age", 18, 24), CatEq("MultiLing", "0"), CatEq("Area", "Chicago"))
    assert(relate(cc4, cc3, schema) == FirstInSecond)
    assert(relate(cc3, cc4, schema) == SecondInFirst)
  }
  test("paper Example 4.5: overlapping age ranges intersect") {
    val a = cc("a", NumRange("Age", 10, 49), CatEq("Area", "Chicago"))
    val b = cc("b", NumRange("Age", 30, 70), CatEq("Area", "NYC"))
    assert(relate(a, b, schema) == Intersecting)
  }
  test("different attributes, no containment → Intersecting") {
    assert(relate(ownerChi, youngChi, schema) == Intersecting)
    assert(relate(ownerChi, mlChi, schema) == Intersecting)
  }
  test("identical conditions → Identical") {
    val a = cc("a", CatEq("Rel", "Owner"), CatEq("Area", "Chicago"))
    assert(relate(a, ownerChi, schema) == Identical)
  }
  test("containment across R2 attrs: Tenure-Area CC inside Area-only CC") {
    val parent = cc("p", NumRange("Age", 0, 29), CatEq("Rel", "Owner"), CatEq("Area", "A00"))
    val child = cc("c", NumRange("Age", 0, 14), CatEq("Rel", "Owner"),
                   CatEq("Tenure", "Owned"), CatEq("Area", "A00"))
    assert(relate(child, parent, schema) == FirstInSecond)
  }
  test("nested R1 with different combos intersect (the trap the good set avoids)") {
    val a = cc("a", NumRange("Age", 0, 10), CatEq("Rel", "Owner"),
               CatEq("Tenure", "Owned"), CatEq("Area", "A00"))
    val b = cc("b", NumRange("Age", 0, 6), CatEq("Rel", "Owner"),
               CatEq("Tenure", "Rented"), CatEq("Area", "A01"))
    assert(relate(b, a, schema) == Intersecting)
  }
  test("relation is symmetric up to containment direction") {
    val pairs = Seq((ownerChi, ownerNyc), (ownerChi, youngChi), (youngChi, mlChi))
    for ((a, b) <- pairs) {
      (relate(a, b, schema), relate(b, a, schema)) match {
        case (Disjoint, x)      => assert(x == Disjoint)
        case (Intersecting, x)  => assert(x == Intersecting)
        case (FirstInSecond, x) => assert(x == SecondInFirst)
        case (SecondInFirst, x) => assert(x == FirstInSecond)
        case (Identical, x)     => assert(x == Identical)
      }
    }
  }
}
