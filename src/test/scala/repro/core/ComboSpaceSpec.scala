package repro.core

import repro.core.model._
import repro.core.phase1.ComboSpace
import repro.{PaperExample, SparkSpec}

class ComboSpaceSpec extends SparkSpec {
  import PaperExample.schema

  test("paper example has two combos with housing counts 4 and 2") {
    val cs = ComboSpace.build(PaperExample.r2(spark), schema)
    assert(cs.combos.size == 2)
    val byArea = cs.combos.map(c => c.values("Area") -> c.keys.size.toLong).toMap
    assert(byArea == Map("Chicago" -> 4L, "NYC" -> 2L))
  }

  test("combo ids are deterministic") {
    val a = ComboSpace.build(PaperExample.r2(spark), schema)
    val b = ComboSpace.build(PaperExample.r2(spark), schema)
    assert(a.combos == b.combos)
  }

  test("matchesR2Cond selects by value") {
    val cs = ComboSpace.build(PaperExample.r2(spark), schema)
    val chi = cs.combos.filter(_.matchesR2Cond(SelCond(Seq(CatEq("Area", "Chicago")))))
    assert(chi.size == 1 && chi.head.keys.size == 4)
    assert(cs.combos.count(_.matchesR2Cond(SelCond.empty)) == 2)
  }

  test("combo keys partition R2 by B values, even colliding ones") {
    import spark.implicits._
    val twoB = DbSchema(R1Schema("pid", Seq("X"), Nil, "fk"), R2Schema("k", Seq("B1", "B2")))
    val collide = Seq((1L, "ab", "c"), (2L, "a", "bc"), (3L, "ab", "c")).toDF("k", "B1", "B2")
    for ((r2, s) <- Seq(PaperExample.r2(spark) -> schema, collide -> twoB)) {
      val cs = ComboSpace.build(r2, s)
      val attrs = s.r2.attrs
      val rows = r2.collect().map(r => r.getAs[Long](s.r2.key) -> attrs.map(a => r.getAs[String](a)))
      val owners = cs.combos.flatMap(c => c.keys.map(_ -> c)).groupBy(_._1)
      assert(owners.keySet == rows.map(_._1).toSet)
      rows.foreach { case (k, vals) =>
        assert(owners(k).size == 1, s"key $k is in ${owners(k).size} combos")
        assert(attrs.map(owners(k).head._2.values) == vals)
      }
    }
    assert(ComboSpace.build(collide, twoB).combos.map(_.keys) == Seq(Seq(2L), Seq(1L, 3L)))
  }

  test("combo keys are strictly ascending whatever the R2 row order") {
    import spark.implicits._
    val r2 = (1L to 40L).reverse.map(k => (k, if (k % 3 == 0) "NYC" else "Chicago")).toDF("hid", "Area")
    val cs = ComboSpace.build(r2.repartition(4), schema)
    assert(cs.combos.map(_.keys.size).sum == 40)
    cs.combos.foreach(c => assert(c.keys.zip(c.keys.drop(1)).forall { case (a, b) => a < b }, c.keys))
  }

  test("asDataFrame round-trips combo values") {
    val cs = ComboSpace.build(PaperExample.r2(spark), schema)
    val rows = cs.asDataFrame(spark).collect().map(r =>
      r.getAs[Int]("__combo") -> r.getAs[String]("Area")).toMap
    cs.combos.foreach(c => assert(rows(c.id) == c.values("Area")))
  }
}
