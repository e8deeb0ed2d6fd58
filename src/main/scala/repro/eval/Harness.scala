package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.baseline.BaselineArasu
import repro.census.{CensusData, CensusSchema, ConstraintGen}
import repro.core.CExtension
import repro.core.model._
import repro.core.phase1.Phase1Stats

/** Experiment harness mirroring Tables 2/3 of the paper: materializes a
  * dataset at a scale, derives constraint sets, runs an algorithm, and
  * reports the error and timing rows the evaluation tables print.
  */
object Harness {

  /** A materialized dataset: ground-truth Persons/Housing plus their join. */
  final case class Data(persons: DataFrame, housing: DataFrame, gtJoin: DataFrame,
                        nPersons: Long, nHouses: Long)

  def data(spark: SparkSession, scale: Double, nAreas: Int = 12, seed: Long = 7L): Data = {
    val (p, h) = CensusData.generate(spark, scale, nAreas, seed)
    val pc = p.cache(); val hc = h.cache()
    val join = pc.join(hc, Seq("hid")).cache()
    Data(pc, hc, join, pc.count(), hc.count())
  }

  def release(d: Data): Unit = {
    d.gtJoin.unpersist(); d.persons.unpersist(); d.housing.unpersist()
  }

  /** Constraint selection per the Table 2 labels. */
  def dcSet(name: String): Seq[DenialConstraint] = name match {
    case "all"  => ConstraintGen.sdcAll
    case "good" => ConstraintGen.sdcGood
    case other  => throw new IllegalArgumentException(s"unknown DC set $other")
  }

  def ccSet(d: Data, name: String, nAreas: Int = 12): Seq[CardinalityConstraint] = name match {
    case "good" => ConstraintGen.sccGood(d.gtJoin, nAreas)
    case "bad"  => ConstraintGen.sccBad(d.gtJoin, nAreas)
    case other  => throw new IllegalArgumentException(s"unknown CC set $other")
  }

  /** One row of an accuracy/scalability table. */
  final case class AlgoResult(algo: String, ccMedian: Double, ccMean: Double,
                              dcErr: Double, phase1Ms: Long, phase2Ms: Long,
                              stats: Phase1Stats)

  /** Run one algorithm over a dataset+constraints and measure its errors.
    * `algo` ∈ {"hybrid", "baseline", "baselineM"}.
    */
  def runOne(d: Data, schema: DbSchema, ccs: Seq[CardinalityConstraint],
             dcs: Seq[DenialConstraint], algo: String): AlgoResult = {
    val r1 = CensusData.blind(d.persons)
    val res = algo match {
      case "hybrid"    => CExtension.run(r1, d.housing, schema, ccs, dcs)
      case "baseline"  => BaselineArasu.run(r1, d.housing, schema, ccs, withMarginals = false)
      case "baselineM" => BaselineArasu.run(r1, d.housing, schema, ccs, withMarginals = true)
      case other       => throw new IllegalArgumentException(s"unknown algo $other")
    }
    val joined =
      if (schema.r1.fk == schema.r2.key) res.r1Hat.join(res.r2Hat, Seq(schema.r1.fk))
      else res.r1Hat.join(res.r2Hat, res.r1Hat(schema.r1.fk) === res.r2Hat(schema.r2.key))
    val errs = ErrorMeasures.ccRelErrors(joined, ccs)
    val dcErr = ErrorMeasures.dcViolationFraction(res.r1Hat, schema, dcs)
    val out = AlgoResult(algo, ErrorMeasures.median(errs), ErrorMeasures.mean(errs),
      dcErr, res.timings.phase1Ms, res.timings.phase2Ms, res.timings.phase1)
    res.vjoin.unpersist(); res.r1Hat.unpersist()
    out
  }

  def schema: DbSchema = CensusSchema.schema

  def fmtErr(x: Double): String = f"$x%.3f"
  def fmtMs(ms: Long): String =
    if (ms >= 60000) f"${ms / 60000.0}%.1fm"
    else if (ms >= 1000) f"${ms / 1000.0}%.1fs"
    else s"${ms}ms"
}
