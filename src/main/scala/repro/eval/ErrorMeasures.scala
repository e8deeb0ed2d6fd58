package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.model._
import repro.core.phase2.ConflictGraph

/** Accuracy measures of Section 6.1. */
object ErrorMeasures {

  /** Count, for every CC, how many join-view rows satisfy its condition.
    * One aggregate pass per chunk of 60 CCs (a single `agg` with a thousand
    * `sum(when(...))` expressions would blow up codegen).
    */
  def ccCounts(joinDf: DataFrame, ccs: Seq[CardinalityConstraint]): Seq[Long] = {
    ccs.grouped(60).flatMap { chunk =>
      val aggs = chunk.zipWithIndex.map { case (cc, i) =>
        sum(when(cc.cond.toColumn, 1L).otherwise(0L)).alias(s"c$i")
      }
      val row = joinDf.agg(aggs.head, aggs.tail: _*).head()
      chunk.indices.map(i => if (row.isNullAt(i)) 0L else row.getLong(i))
    }.toSeq
  }

  /** Relative CC error `|ĉ − c| / max(10, c)` per CC (Section 6.1). */
  def ccRelErrors(joinDf: DataFrame, ccs: Seq[CardinalityConstraint]): Seq[Double] = {
    val got = ccCounts(joinDf, ccs)
    ccs.zip(got).map { case (cc, g) =>
      math.abs(g - cc.target).toDouble / math.max(10L, cc.target)
    }
  }

  def median(xs: Seq[Double]): Double = {
    if (xs.isEmpty) return 0.0
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2.0
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** DC error: the fraction of R̂1 tuples participating in a violation.
    *
    * A Foreign-Key DC can only be violated by tuples sharing an FK value, so
    * the conflict pass runs per FK group — any edge among same-FK tuples is
    * a violation. Handles every DC arity and runs distributed.
    */
  def dcViolationFraction(r1Hat: DataFrame, schema: DbSchema,
                          dcs: Seq[DenialConstraint]): Double = {
    if (dcs.isEmpty) return 0.0
    val spark = r1Hat.sparkSession
    import spark.implicits._
    val violators = ConflictGraph.perGroup(r1Hat, schema.r1, col(schema.r1.fk), dcs) {
      (_, group, edges) => edges.flatten.distinct.map(i => group(i).key).iterator
    }
    val total = r1Hat.count()
    if (total == 0) 0.0 else violators.distinct().count().toDouble / total
  }
}
