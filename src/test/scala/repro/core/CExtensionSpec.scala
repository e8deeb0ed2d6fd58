package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.census.{CensusData, CensusSchema, ConstraintGen}
import repro.core.CExtension
import repro.core.model._
import repro.core.model.CmpOp._
import repro.eval.ErrorMeasures
import repro.{PaperExample, SparkSpec}

class CExtensionSpec extends SparkSpec {

  test("paper running example end-to-end: zero CC and DC error") {
    val res = CExtension.run(PaperExample.r1(spark), PaperExample.r2(spark),
      PaperExample.schema, PaperExample.ccs, PaperExample.dcs)
    val joined = res.r1Hat.join(res.r2Hat, Seq("hid"))
    val errs = ErrorMeasures.ccRelErrors(joined, PaperExample.ccs)
    assert(errs.forall(_ == 0.0), s"CC errors: $errs")
    assert(ErrorMeasures.dcViolationFraction(res.r1Hat, PaperExample.schema,
      PaperExample.dcs) == 0.0)
    res.vjoin.unpersist(); res.r1Hat.unpersist()
  }

  test("census mini end-to-end with good CCs: exact CCs, zero DC error") {
    val schema = CensusSchema.schema
    val (persons, housing) = CensusData.generate(spark, scale = 0.05, nAreas = 4)
    val gtJoin = persons.join(housing, Seq("hid"))
    val ccs = ConstraintGen.sccGood(gtJoin, nAreas = 4)
    val dcs = ConstraintGen.sdcAll
    val res = CExtension.run(CensusData.blind(persons), housing, schema, ccs, dcs)
    val joined = res.r1Hat.join(res.r2Hat, Seq("hid"))
    val errs = ErrorMeasures.ccRelErrors(joined, ccs)
    assert(ErrorMeasures.median(errs) == 0.0)
    assert(errs.forall(_ == 0.0), s"nonzero CC errors: ${ccs.map(_.id).zip(errs).filter(_._2 > 0).take(5)}")
    assert(ErrorMeasures.dcViolationFraction(res.r1Hat, schema, dcs) == 0.0)
    assert(res.r1Hat.count() == persons.count())
    res.vjoin.unpersist(); res.r1Hat.unpersist()
  }

  test("census mini with bad CCs: DCs exact, CC error small") {
    val schema = CensusSchema.schema
    val (persons, housing) = CensusData.generate(spark, scale = 0.05, nAreas = 4)
    val gtJoin = persons.join(housing, Seq("hid"))
    val ccs = ConstraintGen.sccBad(gtJoin, nAreas = 4)
    val dcs = ConstraintGen.sdcAll
    val res = CExtension.run(CensusData.blind(persons), housing, schema, ccs, dcs)
    val joined = res.r1Hat.join(res.r2Hat, Seq("hid"))
    val errs = ErrorMeasures.ccRelErrors(joined, ccs)
    assert(ErrorMeasures.median(errs) <= 0.05, s"median ${ErrorMeasures.median(errs)}")
    assert(ErrorMeasures.dcViolationFraction(res.r1Hat, schema, dcs) == 0.0)
    res.vjoin.unpersist(); res.r1Hat.unpersist()
  }

  test("timings are recorded for both phases") {
    val res = CExtension.run(PaperExample.r1(spark), PaperExample.r2(spark),
      PaperExample.schema, PaperExample.ccs, PaperExample.dcs)
    assert(res.timings.totalMs >= res.timings.phase1Ms)
    assert(res.timings.totalMs >= res.timings.phase2Ms)
    res.vjoin.unpersist(); res.r1Hat.unpersist()
  }

  test("no CCs at all: DCs still satisfied, everything completed") {
    val res = CExtension.run(PaperExample.r1(spark), PaperExample.r2(spark),
      PaperExample.schema, Nil, PaperExample.dcs)
    assert(res.r1Hat.filter(col("hid").isNull).count() == 0)
    assert(ErrorMeasures.dcViolationFraction(res.r1Hat, PaperExample.schema,
      PaperExample.dcs) == 0.0)
    res.vjoin.unpersist(); res.r1Hat.unpersist()
  }

  test("no DCs: FK assignment still consistent with V_Join") {
    val res = CExtension.run(PaperExample.r1(spark), PaperExample.r2(spark),
      PaperExample.schema, PaperExample.ccs, Nil)
    val joined = res.r1Hat.join(res.r2Hat, Seq("hid"))
    val errs = ErrorMeasures.ccRelErrors(joined, PaperExample.ccs)
    assert(errs.forall(_ == 0.0))
    res.vjoin.unpersist(); res.r1Hat.unpersist()
  }

  test("two numeric attributes with a cross atom on each: every child lands with its one compatible owner") {
    import spark.implicits._
    // numAttrs lists Income before Age, unlike the DataFrame's column order.
    val schema = DbSchema(R1Schema("pid", Seq("Rel"), Seq("Income", "Age"), "hid"),
                          R2Schema("hid", Seq("Area")))
    val owner = SelCond(Seq(CatEq("Rel", "Owner")))
    val child = SelCond(Seq(CatEq("Rel", "Child")))
    val dcs = Seq(
      DenialConstraint("oo", Seq(owner, owner), Nil),
      DenialConstraint("child_too_old", Seq(owner, child), Seq(CrossCond(1, "Age", Gt, 0, "Age", -12))),
      DenialConstraint("child_richer", Seq(owner, child), Seq(CrossCond(1, "Income", Gt, 0, "Income", 0))))
    // Child 3+i is compatible with owner i only: no older than Age − 12 and
    // no richer. Reading Age for Income (or the reverse) would let child 5
    // join owner 1.
    val r1 = Seq(
      (1L, "Owner", 40, 300), (2L, "Owner", 50, 200), (3L, "Owner", 60, 100),
      (4L, "Child", 25, 280), (5L, "Child", 35, 180), (6L, "Child", 45, 80),
    ).toDF("pid", "Rel", "Age", "Income").withColumn("hid", lit(null).cast("long"))
    val r2 = Seq((1L, "X"), (2L, "X"), (3L, "X")).toDF("hid", "Area")
    val res = CExtension.run(r1, r2, schema, Nil, dcs)
    val hid = res.r1Hat.select("pid", "hid").collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
    assert(hid.size == 6)
    assert(Seq(1L, 2L, 3L).map(hid).distinct.size == 3)
    assert(Seq(4L -> 1L, 5L -> 2L, 6L -> 3L).forall { case (c, o) => hid(c) == hid(o) }, s"FKs: $hid")
    assert(res.r2Hat.count() == 3)
    assert(ErrorMeasures.dcViolationFraction(res.r1Hat, schema, dcs) == 0.0)
    res.vjoin.unpersist(); res.r1Hat.unpersist()
  }

  private def nullAt(df: DataFrame, key: String, k: Long, column: String, tpe: String): DataFrame =
    df.withColumn(column, when(col(key) === k, lit(null).cast(tpe)).otherwise(col(column)))

  private def assertRejects(r1: DataFrame, r2: DataFrame, relation: String, column: String): Unit = {
    val e = intercept[IllegalArgumentException](CExtension.run(r1, r2, PaperExample.schema,
      PaperExample.ccs, PaperExample.dcs))
    assert(e.getMessage.contains(s"$relation column $column"), e.getMessage)
  }

  test("a null categorical R1 value fails loudly, naming R1 and the column") {
    assertRejects(nullAt(PaperExample.r1(spark), "pid", 5L, "Rel", "string"),
                  PaperExample.r2(spark), "R1", "Rel")
  }

  test("a null numeric R1 value fails loudly, naming R1 and the column") {
    assertRejects(nullAt(PaperExample.r1(spark), "pid", 5L, "Age", "int"),
                  PaperExample.r2(spark), "R1", "Age")
    assertRejects(PaperExample.r1(spark).withColumn("Age", lit(null).cast("int")),
                  PaperExample.r2(spark), "R1", "Age")
  }

  test("a null R2 value fails loudly, naming R2 and the column") {
    assertRejects(PaperExample.r1(spark), nullAt(PaperExample.r2(spark), "hid", 6L, "Area", "string"),
                  "R2", "Area")
  }

  test("an empty R2 fails loudly") {
    val e = intercept[IllegalArgumentException](CExtension.run(PaperExample.r1(spark),
      PaperExample.r2(spark).filter(lit(false)), PaperExample.schema, PaperExample.ccs, PaperExample.dcs))
    assert(e.getMessage.contains("R2 has no tuples"), e.getMessage)
  }

  test("R2 keys too close to Long.MaxValue for fresh keys fail loudly") {
    // Fresh keys are allocated above the largest R2 key; they must not wrap.
    val r2 = PaperExample.r2(spark)
      .withColumn("hid", when(col("hid") >= 4L, lit(Long.MaxValue - 100L) + col("hid")).otherwise(col("hid")))
    val e = intercept[IllegalArgumentException](CExtension.run(PaperExample.r1(spark), r2,
      PaperExample.schema, PaperExample.ccs, PaperExample.dcs))
    assert(e.getMessage.contains("fresh keys"), e.getMessage)
  }

  test("a solve leaves no cached relation behind once vjoin and R̂1 are released") {
    // One Chicago home: Phase II creates fresh R̂2 tuples.
    import spark.implicits._
    val r2 = Seq((1L, "Chicago"), (5L, "NYC"), (6L, "NYC")).toDF("hid", "Area")
    def persisted = spark.sparkContext.getPersistentRDDs.size
    val before = persisted
    val after = (1 to 3).map { _ =>
      val res = CExtension.run(PaperExample.r1(spark), r2, PaperExample.schema,
        Seq(PaperExample.ccs.head), PaperExample.dcs)
      assert(res.r2Hat.count() > 3)
      res.vjoin.unpersist(); res.r1Hat.unpersist()
      persisted
    }
    assert(after.forall(_ <= before), s"cached RDDs: $before before, $after after each solve")
  }
}
