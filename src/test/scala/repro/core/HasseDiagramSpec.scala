package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ccrel.HasseDiagram
import repro.core.model._

class HasseDiagramSpec extends AnyFunSuite {
  private val schema = DbSchema(
    R1Schema("pid", Seq("Rel"), Seq("Age"), "hid"),
    R2Schema("hid", Seq("Area")))

  private def cc(id: String, preds: Pred*): CardinalityConstraint =
    CardinalityConstraint(id, SelCond(preds), 1)

  private val root = cc("root", NumRange("Age", 0, 30), CatEq("Area", "A"))
  private val left = cc("left", NumRange("Age", 0, 15), CatEq("Area", "A"))
  private val right = cc("right", NumRange("Age", 16, 30), CatEq("Area", "A"))
  private val leaf = cc("leaf", NumRange("Age", 0, 7), CatEq("Area", "A"))
  private val other = cc("other", NumRange("Age", 40, 60), CatEq("Area", "B"))

  test("forest builds chain with correct parentage") {
    val f = HasseDiagram.buildForest(Seq(root, left, right, leaf, other))
    assert(f.roots.map(_.cc.id).toSet == Set("root", "other"))
    val r = f.roots.find(_.cc.id == "root").get
    assert(r.children.map(_.cc.id).toSet == Set("left", "right"))
    val l = r.children.find(_.cc.id == "left").get
    assert(l.children.map(_.cc.id) == Seq("leaf"))
  }

  test("forest of all-disjoint CCs has only roots") {
    val f = HasseDiagram.buildForest(Seq(left, right, other))
    assert(f.roots.size == 3)
    assert(f.roots.forall(_.children.isEmpty))
  }

  test("split: no intersections → everything in S1") {
    val s = HasseDiagram.split(Seq(root, left, right, leaf, other), schema)
    assert(s.s2.isEmpty)
    assert(s.s1.map(_.id).toSet == Set("root", "left", "right", "leaf", "other"))
  }

  test("split: intersecting pair goes to S2") {
    val x = cc("x", NumRange("Age", 10, 20), CatEq("Area", "C"))
    val y = cc("y", NumRange("Age", 15, 25), CatEq("Area", "D"))
    val s = HasseDiagram.split(Seq(x, y, other), schema)
    assert(s.s2.map(_.id).toSet == Set("x", "y"))
    assert(s.s1.map(_.id) == Seq("other"))
  }

  test("split: containment chains connected to an intersection are dragged to S2") {
    // leaf ⊂ left ⊂ root form a component; x intersects left → whole chain to S2
    val x = cc("x", NumRange("Age", 10, 20), CatEq("Area", "Z"))
    val s = HasseDiagram.split(Seq(root, left, leaf, x, other), schema)
    assert(s.s2.map(_.id).toSet == Set("root", "left", "leaf", "x"))
    assert(s.s1.map(_.id) == Seq("other"))
  }

  test("split: identical CC pair is routed to S2") {
    val dup = cc("dup", NumRange("Age", 40, 60), CatEq("Area", "B"))
    val s = HasseDiagram.split(Seq(other, dup, left), schema)
    assert(s.s2.map(_.id).toSet == Set("other", "dup"))
  }

  test("split: S1–S2 pairs are always disjoint (§4.3 invariant)") {
    val x = cc("x", NumRange("Age", 10, 20), CatEq("Area", "C"))
    val y = cc("y", NumRange("Age", 15, 25), CatEq("Area", "D"))
    val s = HasseDiagram.split(Seq(root, left, right, leaf, other, x, y), schema)
    for (a <- s.s1; b <- s.s2) {
      assert(repro.core.ccrel.CCRelation.relate(a, b, schema) ==
        repro.core.ccrel.CCRelation.Disjoint)
    }
  }

  test("buildForest rejects a CC with two incomparable containers") {
    // a ⊂ b and a ⊂ c with b, c intersecting → no unique minimal container
    val a = cc("a", NumRange("Age", 5, 10), CatEq("Area", "A"))
    val b = cc("b", NumRange("Age", 0, 15), CatEq("Area", "A"))
    val c = cc("c", NumRange("Age", 5, 20), CatEq("Area", "A"))
    assertThrows[IllegalArgumentException](
      HasseDiagram.buildForest(Seq(a, b, c)))
  }

  test("empty CC set yields empty forest and split") {
    val s = HasseDiagram.split(Nil, schema)
    assert(s.s1.isEmpty && s.s2.isEmpty && s.forest.roots.isEmpty)
  }
}
