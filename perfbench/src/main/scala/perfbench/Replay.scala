package perfbench

import java.util.concurrent.{Callable, Executors, TimeUnit}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.core.ccrel.HasseDiagram
import repro.core.model._
import repro.core.phase1._
import repro.core.phase2.{ConflictGraph, ListColoring}
import scala.jdk.CollectionConverters._

/** Replays the solver's sub-layers in isolation on the inputs of one solve,
  * recording a span and the work counts of each layer. Metrics go into `m`
  * under the names listed in the benchmark note.
  */
final class Replay(tracer: Tracer, schema: DbSchema, threads: Int) {

  private def timed[T](m: collection.mutable.Map[String, Double], name: String, metric: String)
                      (body: => T): T = {
    val out = tracer.span(name)(body)
    m(metric) = tracer.ms(name).last
    out
  }

  /** Phase I: binning, combo space, pairwise split, Hasse recursion and ILP
    * on a fresh bin pool, then applying their allocations.
    */
  def phase1(r1: DataFrame, r2: DataFrame, ccs: Seq[CardinalityConstraint],
             m: collection.mutable.Map[String, Double]): Unit = tracer.span("replay.phase1") {
    val r1NoFk = r1.drop(schema.r1.fk)
    val binning = timed(m, "phase1.binning", "phase1.binning_ms")(Binning.build(r1NoFk, schema, ccs))
    val combos = timed(m, "phase1.combospace", "phase1.combospace_ms")(ComboSpace.build(r2, schema))
    val split = timed(m, "ccrel.split", "ccrel.split_ms")(HasseDiagram.split(ccs, schema))
    val pool = new BinPool(binning.bins)
    val hasse = timed(m, "phase1.hasse", "phase1.hasse_ms")(
      HasseCompleter.plan(split.forest, ccs, schema, binning, combos, pool))
    val ilp = timed(m, "phase1.ilp", "phase1.ilp_ms")(
      IlpCompleter.plan(split.s2, schema, binning, combos, pool,
                        withMarginals = true, dropFreePairs = true))
    val allocs = hasse.allocs ++ ilp.allocs
    timed(m, "phase1.alloc", "phase1.alloc_ms")(
      AllocationPlan(binning.withBinId(r1NoFk), schema, allocs).count())
    Seq("phase1.bins" -> binning.bins.size.toDouble,
        "phase1.combos" -> combos.combos.size.toDouble,
        "phase1.allocs" -> allocs.size.toDouble,
        "ccrel.pairs" -> ccs.size.toDouble * (ccs.size - 1) / 2,
        "ccrel.s1" -> split.s1.size.toDouble,
        "ccrel.s2" -> split.s2.size.toDouble,
        "phase1.shortfalls" -> hasse.shortfalls.size.toDouble,
        "ilp.vars" -> ilp.nVars.toDouble,
        "ilp.rows" -> ilp.nRows.toDouble,
        "ilp.l1" -> ilp.l1Error).foreach { case (k, v) => m(k) = v; tracer.count(k, v) }
  }

  /** Phase II: per B-combo partition of `vjoin`, conflict-graph enumeration
    * and largest-first coloring with the combo's housing keys as palette,
    * `threads` partitions at a time (as the solver's Spark tasks run).
    * Partition sizes come from a `groupBy("__combo")` on `vjoin`.
    *
    * @param palettes combo id → housing keys with the combo's B values
    */
  def phase2(vjoin: DataFrame, dcs: Seq[DenialConstraint], palettes: Map[Int, IndexedSeq[Long]],
             m: collection.mutable.Map[String, Double]): Unit = tracer.span("replay.phase2") {
    val sizes = Replay.partitionSizes(vjoin)
    val s = schema.r1
    val rows = vjoin.filter(col("__combo") >= 0)
      .select(col("__combo").cast("int") +: col(s.key).cast("long") +:
              (s.catAttrs.map(a => col(a).cast("string")) ++ s.numAttrs.map(a => col(a).cast("int"))): _*)
      .collect()
    val parts = rows.groupBy(_.getInt(0)).toSeq.sortBy(_._1).map { case (combo, rs) =>
      combo -> rs.sortBy(_.getLong(1)).map { r =>
        (s.catAttrs.indices.map(i => s.catAttrs(i) -> (r.getString(2 + i): Any)) ++
          s.numAttrs.indices.map(i => s.numAttrs(i) -> (r.getInt(2 + s.catAttrs.size + i): Any))).toMap
      }.toIndexedSeq
    }
    val parent = tracer.current
    val pool = Executors.newFixedThreadPool(threads)
    val results = try {
      val tasks = parts.map { case (combo, tuples) => new Callable[(Long, Int)] {
        def call(): (Long, Int) = tracer.span("phase2.partition", parent) {
          val edges = tracer.span("phase2.graph")(ConflictGraph.edges(tuples, dcs.toVector))
          val (_, skipped) = tracer.span("phase2.color")(
            ListColoring.colorLF(tuples.size, edges, Map.empty, palettes.getOrElse(combo, IndexedSeq.empty)))
          tracer.count("tuples", tuples.size)
          tracer.count("edges", edges.size)
          tracer.count("skipped", skipped.size)
          (edges.size.toLong, skipped.size)
        }
      }}
      pool.invokeAll(tasks.asJava).asScala.map(_.get()).toSeq
    } finally { pool.shutdown(); pool.awaitTermination(1, TimeUnit.MINUTES) }
    val graphMs = tracer.ms("phase2.graph").takeRight(parts.size)
    val colorMs = tracer.ms("phase2.color").takeRight(parts.size)
    val tuples = sizes.values.toSeq
    val skipped = results.map(_._2).sum
    m("phase2.partitions") = sizes.size
    m("phase2.part_tuples_max") = if (tuples.isEmpty) 0 else tuples.max
    m("phase2.part_tuples_mean") = if (tuples.isEmpty) 0 else tuples.sum.toDouble / tuples.length
    m("phase2.edges_sum") = results.map(_._1).sum
    m("phase2.edges_max") = if (results.isEmpty) 0 else results.map(_._1).max
    m("phase2.graph_ms_sum") = graphMs.sum
    m("phase2.graph_ms_max") = if (graphMs.isEmpty) 0 else graphMs.max
    m("phase2.color_ms_sum") = colorMs.sum
    m("phase2.color_ms_max") = if (colorMs.isEmpty) 0 else colorMs.max
    m("phase2.skipped") = skipped
    m("phase2.skip_ratio") = if (tuples.isEmpty) 0 else skipped.toDouble / tuples.sum
  }
}

object Replay {
  /** Tuples per Phase I combo (invalid tuples, combo −1, excluded). */
  def partitionSizes(vjoin: DataFrame): Map[Int, Long] =
    vjoin.groupBy("__combo").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).filter(_._1 >= 0).toMap
}
