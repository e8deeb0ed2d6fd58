package repro.census

import org.scalatest.funsuite.AnyFunSuite

class CensusSchemaSpec extends AnyFunSuite {
  test("there are 13 relationship categories, Owner first") {
    assert(CensusSchema.Rels.size == 13)
    assert(CensusSchema.Rels.head == CensusSchema.Owner)
    assert(CensusSchema.Rels.distinct.size == 13)
  }
  test("child categories are the three of DCs 1-2") {
    assert(CensusSchema.ChildRels.toSet ==
      Set(CensusSchema.BiologicalChild, CensusSchema.AdoptedChild, CensusSchema.StepChild))
  }
  test("one tenure is reserved out of the CC sets") {
    assert(CensusSchema.Tenures.size == 4)
    assert(CensusSchema.TenuresInCCs == CensusSchema.Tenures.take(3))
    assert(!CensusSchema.TenuresInCCs.contains("NoPay"))
  }
  test("area names are zero-padded and distinct") {
    assert(CensusSchema.areaName(0) == "A00")
    assert(CensusSchema.areaName(11) == "A11")
    assert((0 until 20).map(CensusSchema.areaName).distinct.size == 20)
  }
  test("schema wiring matches the Persons/Housing tables") {
    val s = CensusSchema.schema
    assert(s.r1.key == "pid" && s.r1.fk == "hid")
    assert(s.r1.catAttrs == Seq("Rel", "MultiLing") && s.r1.numAttrs == Seq("Age"))
    assert(s.r2.key == "hid" && s.r2.attrs == Seq("Tenure", "Area"))
  }
}
