package repro.census

import org.scalatest.funsuite.AnyFunSuite
import repro.core.ccrel.{CCRelation, HasseDiagram}
import repro.core.model._
import repro.core.phase2.ConflictGraph

/** Pure (Spark-free) structure tests of the constraint generators. */
class ConstraintGenSpec extends AnyFunSuite {
  private val schema = CensusSchema.schema

  private def asCCs(preds: Seq[(String, SelCond)]): Seq[CardinalityConstraint] =
    preds.map { case (id, c) => CardinalityConstraint(id, c, 1) }

  // ---- DCs (Table 4)

  test("good DC set expands the 8 age-gap DCs") {
    // DC1/DC2: 3 child types × 2 bounds; DC3: 2 rels × 2; DC4: 2;
    // DC5: 2 rels × 2; DC6: 2; DC7: 2; DC8: 2 → 28
    assert(ConstraintGen.sdcGood.size == 28)
  }
  test("all DC set adds DCs 9-12") {
    // + dc9 (1) + dc10 (2) + dc11 (2) + dc12 (3) = 36
    assert(ConstraintGen.sdcAll.size == 36)
    assert(ConstraintGen.sdcAll.startsWith(ConstraintGen.sdcGood))
  }
  test("every DC is pairwise (the census sets never need arity > 2)") {
    assert(ConstraintGen.sdcAll.forall(_.arity == 2))
  }
  test("DC names are unique") {
    val names = ConstraintGen.sdcAll.map(_.name)
    assert(names.distinct.size == names.size)
  }
  /** Would `tuples` violate `dc` if they shared a foreign key? */
  private def fires(dc: DenialConstraint, tuples: Map[String, Any]*): Boolean =
    ConflictGraph.edges(tuples.toIndexedSeq, Seq(dc)).nonEmpty

  test("dc9 fires on two owners") {
    val dc9 = ConstraintGen.sdcAll.find(_.name == "dc9").get
    assert(fires(dc9,
      Map("Rel" -> "Owner", "Age" -> 40, "MultiLing" -> "0"),
      Map("Rel" -> "Owner", "Age" -> 50, "MultiLing" -> "1")))
  }
  test("dc1 fires on a too-old child of a non-multilingual owner") {
    val dc = ConstraintGen.sdcGood.find(_.name == "dc1_BiologicalChild_gt").get
    val owner = Map[String, Any]("Rel" -> "Owner", "Age" -> 40, "MultiLing" -> "0")
    val child = Map[String, Any]("Rel" -> "BiologicalChild", "Age" -> 35, "MultiLing" -> "0")
    assert(fires(dc, owner, child)) // 35 > 40-12
    val okChild = Map[String, Any]("Rel" -> "BiologicalChild", "Age" -> 20, "MultiLing" -> "0")
    assert(!fires(dc, owner, okChild))
  }
  test("dc10 only fires for owners under 30") {
    val dc = ConstraintGen.sdcAll.find(_.name == "dc10_Grandchild").get
    val young = Map[String, Any]("Rel" -> "Owner", "Age" -> 25, "MultiLing" -> "0")
    val old = Map[String, Any]("Rel" -> "Owner", "Age" -> 50, "MultiLing" -> "0")
    val gc = Map[String, Any]("Rel" -> "Grandchild", "Age" -> 5, "MultiLing" -> "0")
    assert(fires(dc, young, gc))
    assert(!fires(dc, old, gc))
  }

  // ---- CCs (Table 5 structure)

  test("good CC set has no intersecting pairs (S2 empty)") {
    val ccs = asCCs(ConstraintGen.sccPreds(nAreas = 12, bad = false))
    val split = HasseDiagram.split(ccs, schema)
    assert(split.s2.isEmpty, s"unexpected intersecting CCs: ${split.s2.map(_.id).take(5)}")
  }

  test("good CC set contains both containment and disjoint relations") {
    val ccs = asCCs(ConstraintGen.sccPreds(nAreas = 4, bad = false))
    val rels = for (i <- ccs.indices; j <- (i + 1) until ccs.size)
      yield CCRelation.relate(ccs(i), ccs(j), schema)
    assert(rels.contains(CCRelation.Disjoint))
    assert(rels.exists(r => r == CCRelation.FirstInSecond || r == CCRelation.SecondInFirst))
  }

  test("bad CC set has intersecting pairs, routing roughly half to S2") {
    val ccs = asCCs(ConstraintGen.sccPreds(nAreas = 12, bad = true))
    val split = HasseDiagram.split(ccs, schema)
    assert(split.s2.nonEmpty)
    val frac = split.s2.size.toDouble / ccs.size
    assert(frac > 0.2 && frac < 0.8, s"S2 fraction $frac")
  }

  test("CC ids are unique in both sets") {
    for (bad <- Seq(false, true)) {
      val ids = ConstraintGen.sccPreds(12, bad).map(_._1)
      assert(ids.distinct.size == ids.size)
    }
  }

  test("good and bad sets have the same size") {
    assert(ConstraintGen.sccPreds(12, bad = false).size ==
           ConstraintGen.sccPreds(12, bad = true).size)
  }

  test("CC conditions only use the three in-CC tenures, keeping NoPay unused") {
    val tenures = ConstraintGen.sccPreds(12, bad = true)
      .flatMap(_._2.byAttr.get("Tenure")).collect { case CatEq(_, v) => v }.toSet
    assert(tenures == CensusSchema.TenuresInCCs.toSet)
  }

  test("area-only CCs exist (roots constraining Area without Tenure)") {
    val preds = ConstraintGen.sccPreds(12, bad = false)
    val areaOnly = preds.filter { case (_, c) =>
      c.byAttr.contains("Area") && !c.byAttr.contains("Tenure")
    }
    assert(areaOnly.size == 12)
  }

  test("too many areas for the family pool is rejected") {
    assertThrows[IllegalArgumentException](ConstraintGen.sccPreds(20, bad = false))
  }

  test("Hasse forest of the good set has the expected chain depth") {
    val ccs = asCCs(ConstraintGen.sccPreds(nAreas = 2, bad = false))
    val split = HasseDiagram.split(ccs, schema)
    def depth(n: repro.core.ccrel.HasseNode): Int =
      1 + (if (n.children.isEmpty) 0 else n.children.map(depth).max)
    // chains root ⊃ left ⊃ lA ⊃ lA0 give depth 4
    assert(split.forest.roots.map(depth).max == 4)
  }
}
