package repro.core.phase2

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core.model._
import repro.core.phase1.{Binning, CcCoverage, ComboSpace}

/** One output row of the distributed coloring: either a FK assignment for an
  * R1 tuple (`kind = 0`) or a new housing tuple to append to R̂2 (`kind = 1`).
  */
final case class FkOut(kind: Int, k1: Long, hid: Long, combo: Int)

/** Result of Phase II. `r2Hat` is `r2` plus any fresh-key tuples created for
  * skipped or invalid vertices (Proposition 5.5).
  */
final case class Phase2Result(r1Hat: DataFrame, r2Hat: DataFrame)

/** Algorithm 4: complete `R1.FK` from the combo-annotated V_Join.
  *
  * The §5.2 optimization — one conflict hypergraph per distinct B-combo,
  * since candidate keys are disjoint across combos — maps directly to
  * `groupByKey(comboId).flatMapGroups`: each Spark task builds and colors
  * one partition's hypergraph (this is also the parallelization suggested in
  * §A.3). Invalid tuples (no B values from Phase I) are routed to a second
  * "lane" keyed by the least-CC-impact combo of their bin and colored with
  * fresh keys only, which is trivially DC-safe w.r.t. previously colored
  * tuples and realizes `solveInvalidTuples`.
  */
object FkAssigner {

  def run(vjoin: DataFrame, r1: DataFrame, r2: DataFrame, schema: DbSchema,
          dcs: Seq[DenialConstraint], ccs: Seq[CardinalityConstraint],
          binning: Binning, comboSpace: ComboSpace): Phase2Result = {
    val spark = vjoin.sparkSession
    import spark.implicits._

    val k2 = schema.r2.key
    // Candidate FK values per combo (housing keys with those B values).
    val palettes: IndexedSeq[IndexedSeq[Long]] = comboSpace.combos.map(_.keys)
    val maxHid = comboSpace.maxKey

    // Least-CC-impact combo per bin (lowest id on ties), for solveInvalidTuples.
    val coverage = new CcCoverage(ccs, schema, binning, comboSpace)
    val bestComboForBin: Map[Int, Int] = binning.bins.map { b =>
      val impact = coverage.impact(b.id)
      b.id -> impact.indexOf(impact.min)
    }.toMap

    // Group key: combo*2 for valid tuples, bestCombo*2+1 for invalid ones.
    val invalidKeyDf = bestComboForBin.toSeq.toDF("__bin", "__bestCombo")
    val groupKey = when(col("__combo") >= 0, col("__combo").cast("long") * 2)
      .otherwise(coalesce(col("__bestCombo"), lit(0)).cast("long") * 2 + 1)

    val outs: Dataset[FkOut] = ConflictGraph.perGroup(
        vjoin.join(invalidKeyDf, Seq("__bin"), "left"), schema.r1, groupKey, dcs) {
      (gkey, rows, edges) =>
        val combo = (gkey / 2).toInt
        val invalidLane = gkey % 2 == 1
        val palette = if (invalidLane) IndexedSeq.empty[Long] else palettes(combo)
        val (c1, skipped) = ListColoring.colorLF(rows.size, edges, Map.empty, palette)

        // Fresh colors for skipped vertices. |skipped| of them always
        // suffice: while a skipped vertex is colored some fresh color is
        // still unused, and a hyperedge can only forbid a color that all its
        // other vertices already hold.
        val freshBase = maxHid + ((combo.toLong + 2) << 33) +
          (if (invalidLane) 1L << 32 else 0L)
        val fresh = (1 to skipped.size).map(i => freshBase + i)
        val (colors, _) = ListColoring.colorLF(rows.size, edges, c1, fresh)

        val assigns = rows.indices.map(i => FkOut(0, rows(i).key, colors(i), combo))
        val newHids = colors.values.filter(_ > maxHid).toSeq.distinct
        val newHousing = newHids.map(h => FkOut(1, -1L, h, combo))
        (assigns ++ newHousing).iterator
      }

    val outsDf = outs.toDF().cache()

    val assignDf = outsDf.filter(col("kind") === 0)
      .select(col("k1").as(schema.r1.key), col("hid").as(schema.r1.fk))
    val r1Hat = r1.drop(schema.r1.fk).join(assignDf, Seq(schema.r1.key))

    val newHousingDf = outsDf.filter(col("kind") === 1)
      .select(col("hid"), col("combo").as("__combo"))
      .join(comboSpace.asDataFrame(spark), Seq("__combo"))
      .select(col("hid").as(k2) +: schema.r2.attrs.map(col): _*)
    val r2Hat = r2.select(col(k2) +: schema.r2.attrs.map(col): _*)
      .unionByName(newHousingDf)

    Phase2Result(r1Hat, r2Hat)
  }
}
