package repro.eval

import org.apache.spark.sql.SparkSession
import repro.eval.Harness._

/** Builders for the evaluation-section tables. Each returns structured rows
  * (for bench assertions) and can render them; `jobs/` mains and `bench/`
  * suites share this code so the printed tables are identical.
  */
object TableReports {

  /** Bench scales: ours 1×/2×/5× of the scaled-down base (DESIGN.md subst. 3)
    * stand in for the paper's 1×–40× sweep.
    */
  val DefaultScales: Seq[Double] = Seq(1.0, 2.0, 5.0)

  // ---------------------------------------------------------------- Table 1

  final case class Table1Row(scale: Double, persons: Long, housing: Long, vjoin: Long)

  def table1Rows(spark: SparkSession, scales: Seq[Double]): Seq[Table1Row] =
    scales.map { s =>
      val d = data(spark, s)
      val r = Table1Row(s, d.nPersons, d.nHouses, d.nPersons)
      release(d)
      r
    }

  def renderTable1(rows: Seq[Table1Row]): String = {
    val header = f"${"Scale"}%-8s ${"Persons"}%12s ${"Housing"}%12s ${"VJoin"}%12s"
    (header +: rows.map(r =>
      f"${r.scale}%-8.2f ${r.persons}%12d ${r.housing}%12d ${r.vjoin}%12d")).mkString("\n")
  }

  // ------------------------------------------------------------ Figures 8/10

  final case class AccuracyRow(label: String, algo: String,
                               ccMedian: Double, ccMean: Double, dcErr: Double,
                               phase1Ms: Long, phase2Ms: Long)

  val Algos: Seq[String] = Seq("baseline", "baselineM", "hybrid")

  /** Figure 8a/8b rows: fixed `S_DC_all`, one CC set, scale sweep, all
    * three algorithms.
    */
  def figure8Rows(spark: SparkSession, ccSetName: String,
                  scales: Seq[Double] = DefaultScales): Seq[AccuracyRow] =
    scales.flatMap { s =>
      val d = data(spark, s)
      val ccs = ccSet(d, ccSetName)
      val dcs = dcSet("all")
      val rows = Algos.map { a =>
        val r = runOne(d, schema, ccs, dcs, a)
        AccuracyRow(f"$s%.0fx", a, r.ccMedian, r.ccMean, r.dcErr, r.phase1Ms, r.phase2Ms)
      }
      release(d)
      rows
    }

  /** Figure 10 rows: fixed scale, the four (DC set, CC set) combinations of
    * datasets 11, 12, 4, 9 (good/good, good/bad, all/good, all/bad).
    */
  def figure10Rows(spark: SparkSession, scale: Double = 2.0): Seq[AccuracyRow] = {
    val d = data(spark, scale)
    val combos = Seq(("good", "good"), ("good", "bad"), ("all", "good"), ("all", "bad"))
    val rows = combos.flatMap { case (dcName, ccName) =>
      val ccs = ccSet(d, ccName)
      val dcs = dcSet(dcName)
      Algos.map { a =>
        val r = runOne(d, schema, ccs, dcs, a)
        AccuracyRow(s"DC=$dcName,CC=$ccName", a, r.ccMedian, r.ccMean, r.dcErr,
                    r.phase1Ms, r.phase2Ms)
      }
    }
    release(d)
    rows
  }

  def renderAccuracy(title: String, rows: Seq[AccuracyRow]): String = {
    val header = f"${"Setting"}%-22s ${"Algo"}%-10s ${"CCmed"}%7s ${"CCmean"}%7s " +
      f"${"DCerr"}%7s ${"PhaseI"}%8s ${"PhaseII"}%8s"
    (s"== $title" +: header +: rows.map(r =>
      f"${r.label}%-22s ${r.algo}%-10s ${Harness.fmtErr(r.ccMedian)}%7s " +
        f"${Harness.fmtErr(r.ccMean)}%7s ${Harness.fmtErr(r.dcErr)}%7s " +
        f"${Harness.fmtMs(r.phase1Ms)}%8s ${Harness.fmtMs(r.phase2Ms)}%8s")).mkString("\n")
  }

  // ---------------------------------------------------------------- Figure 13

  final case class BreakdownRow(ccSetName: String, nCCs: Int,
                                pairwiseMs: Long, recursionMs: Long,
                                ilpMs: Long, phase2Ms: Long,
                                ccMedian: Double, ccMean: Double, dcErr: Double,
                                nS1: Int, nS2: Int, ilpVars: Int)

  /** Figure 13: hybrid runtime breakdown (pairwise comparison, Hasse
    * recursion, ILP solver, all of Phase II) for prefixes of the good/bad
    * CC sets.
    */
  def figure13Rows(spark: SparkSession, scale: Double = 2.0,
                   ccCounts: Seq[Int] = Seq(120, 180, 264)): Seq[BreakdownRow] = {
    val d = data(spark, scale)
    val dcs = dcSet("all")
    val rows = for (name <- Seq("good", "bad"); n <- ccCounts) yield {
      val ccs = ccSet(d, name).take(n)
      val r = runOne(d, schema, ccs, dcs, "hybrid")
      BreakdownRow(name, ccs.size, r.stats.pairwiseMs, r.stats.recursionMs,
                   r.stats.ilpMs, r.phase2Ms, r.ccMedian, r.ccMean, r.dcErr,
                   r.stats.nS1, r.stats.nS2, r.stats.ilpVars)
    }
    release(d)
    rows
  }

  def renderBreakdown(rows: Seq[BreakdownRow]): String = {
    val header = f"${"CCs"}%-10s ${"n"}%5s ${"Pairwise"}%9s ${"Recursion"}%10s " +
      f"${"ILP"}%9s ${"Phase II"}%9s ${"CCmed"}%7s ${"CCmean"}%7s ${"DCerr"}%7s " +
      f"${"S1"}%5s ${"S2"}%5s ${"vars"}%7s"
    (header +: rows.map(r =>
      f"${r.ccSetName}%-10s ${r.nCCs}%5d ${Harness.fmtMs(r.pairwiseMs)}%9s " +
        f"${Harness.fmtMs(r.recursionMs)}%10s ${Harness.fmtMs(r.ilpMs)}%9s " +
        f"${Harness.fmtMs(r.phase2Ms)}%9s ${Harness.fmtErr(r.ccMedian)}%7s " +
        f"${Harness.fmtErr(r.ccMean)}%7s ${Harness.fmtErr(r.dcErr)}%7s " +
        f"${r.nS1}%5d ${r.nS2}%5d ${r.ilpVars}%7d")).mkString("\n")
  }
}
