package repro.core

import org.apache.spark.sql.functions._
import repro.core.model._
import repro.core.phase1.HybridCompleter
import repro.core.phase2.FkAssigner
import repro.eval.ErrorMeasures
import repro.{Oracle, PaperExample, SparkSpec}

class FkAssignerSpec extends SparkSpec {
  import PaperExample.schema

  private def runAll() = {
    val r1 = PaperExample.r1(spark)
    val r2 = PaperExample.r2(spark)
    val p1 = HybridCompleter.run(r1, r2, schema, PaperExample.ccs,
                                 HybridCompleter.Mode.Hybrid)
    val p2 = FkAssigner.run(p1.vjoin, r1, r2, schema, PaperExample.dcs,
                            PaperExample.ccs, p1.binning, p1.comboSpace)
    (p1, p2)
  }

  test("every FK cell is completed") {
    val (_, p2) = runAll()
    assert(p2.r1Hat.count() == 9)
    assert(p2.r1Hat.filter(col("hid").isNull).count() == 0)
  }

  test("all DCs are satisfied (Proposition 5.2/5.5)") {
    val (_, p2) = runAll()
    assert(ErrorMeasures.dcViolationFraction(p2.r1Hat, schema, PaperExample.dcs) == 0.0)
  }

  test("R̂1 ⋈ R̂2 recovers V_Join (Proposition 5.5), checked against DuckDB") {
    val (p1, p2) = runAll()
    val vjoinArea = p1.vjoin
      .join(p1.comboSpace.asDataFrame(spark), Seq("__combo"), "left")
      .select(col("pid"), col("Area"))
    Oracle.assertEquivalent(vjoinArea,
      "SELECT p.pid AS pid, h.Area AS Area FROM r1h p JOIN r2h h ON p.hid = h.hid",
      "r1h" -> p2.r1Hat, "r2h" -> p2.r2Hat)
  }

  test("CC counts survive Phase II (counts on the final database)") {
    val (_, p2) = runAll()
    val joined = p2.r1Hat.join(p2.r2Hat, Seq("hid"))
    val errs = ErrorMeasures.ccRelErrors(joined, PaperExample.ccs)
    assert(errs.forall(_ == 0.0), s"errors: $errs")
  }

  test("R̂2 contains the original housing tuples") {
    val (_, p2) = runAll()
    assert(p2.r2Hat.count() >= 6)
    val origIds = p2.r2Hat.filter(col("hid") <= 6).count()
    assert(origIds == 6)
  }

  test("owners all get distinct households (DC_OO forces 6 distinct keys)") {
    val (_, p2) = runAll()
    val ownerHomes = p2.r1Hat.filter(col("Rel") === "Owner")
      .select("hid").distinct().count()
    assert(ownerHomes == 6)
  }

  test("FK values come from R̂2's key set") {
    val (_, p2) = runAll()
    val dangling = p2.r1Hat.join(p2.r2Hat.select(col("hid")), Seq("hid"), "left_anti").count()
    assert(dangling == 0)
  }

  test("deterministic: two runs produce identical assignments") {
    val (_, a) = runAll()
    val (_, b) = runAll()
    val rowsA = a.r1Hat.select("pid", "hid").collect().map(r => (r.getLong(0), r.getLong(1))).sortBy(_._1).toSeq
    val rowsB = b.r1Hat.select("pid", "hid").collect().map(r => (r.getLong(0), r.getLong(1))).sortBy(_._1).toSeq
    assert(rowsA == rowsB)
  }

  test("skipped vertices create fresh housing tuples with matching B values") {
    // Restrict housing to a single Chicago home; 4 owners need Chicago per CCs
    // → 3 owners must be skipped and get fresh Chicago homes.
    import spark.implicits._
    val r1 = PaperExample.r1(spark)
    val tinyR2 = Seq((1L, "Chicago"), (5L, "NYC"), (6L, "NYC")).toDF("hid", "Area")
    val ccs = Seq(PaperExample.ccs.head) // owners in Chicago = 4
    val p1 = HybridCompleter.run(r1, tinyR2, schema, ccs, HybridCompleter.Mode.Hybrid)
    val p2 = FkAssigner.run(p1.vjoin, r1, tinyR2, schema, PaperExample.dcs, ccs,
                            p1.binning, p1.comboSpace)
    assert(ErrorMeasures.dcViolationFraction(p2.r1Hat, schema, PaperExample.dcs) == 0.0)
    val newHomes = p2.r2Hat.filter(col("hid") > 6)
    assert(newHomes.count() >= 3)
    assert(newHomes.filter(col("Area") === "Chicago").count() == newHomes.count())
  }

  test("combo keys out of ascending order fail loudly") {
    val r1 = PaperExample.r1(spark)
    val r2 = PaperExample.r2(spark)
    val p1 = HybridCompleter.run(r1, r2, schema, PaperExample.ccs, HybridCompleter.Mode.Hybrid)
    val reversed = p1.comboSpace.copy(combos = p1.comboSpace.combos.map(c => c.copy(keys = c.keys.reverse)))
    val e = intercept[IllegalArgumentException](FkAssigner.run(p1.vjoin, r1, r2, schema, PaperExample.dcs,
                                                               PaperExample.ccs, p1.binning, reversed))
    assert(e.getMessage.contains("strictly ascending"))
  }

  test("an invalid tuple gets a fresh key carrying its bin's least-impact combo") {
    // Spouse CCs over both areas: the one spouse tuple (pid 5) stays invalid
    // in Phase I, since every combo would add to some CC.
    val ccs = Seq(
      CardinalityConstraint("s1", SelCond(Seq(CatEq("Rel", "Spouse"), CatEq("Area", "Chicago"))), 0),
      CardinalityConstraint("s2", SelCond(Seq(CatEq("Rel", "Spouse"), CatEq("Area", "NYC"))), 0))
    val r1 = PaperExample.r1(spark)
    val r2 = PaperExample.r2(spark)
    val p1 = HybridCompleter.run(r1, r2, schema, ccs, HybridCompleter.Mode.Hybrid)
    assert(p1.vjoin.filter(col("__combo") === -1).select("pid").collect().map(_.getLong(0)).toSeq == Seq(5L))
    val p2 = FkAssigner.run(p1.vjoin, r1, r2, schema, PaperExample.dcs, ccs,
                            p1.binning, p1.comboSpace)

    val hid = p2.r1Hat.filter(col("pid") === 5L).select("hid").head().getLong(0)
    assert(hid > 6L, s"expected a fresh key, got $hid")
    val area = p2.r2Hat.filter(col("hid") === hid).select("Area").collect().map(_.getString(0)).toSeq
    // Least-impact combo: fewest CCs counting (spouse, area), lowest combo id on ties.
    val spouse = Map("Rel" -> "Spouse", "MultiLing" -> "0")
    val expected = p1.comboSpace.combos.minBy(c =>
      (ccs.count(_.cond.matches(spouse ++ c.values)), c.id)).values("Area")
    assert(area == Seq(expected))
    assert(ErrorMeasures.dcViolationFraction(p2.r1Hat, schema, PaperExample.dcs) == 0.0)
  }
}
