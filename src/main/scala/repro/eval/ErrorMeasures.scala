package repro.eval

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import repro.core.model._
import repro.core.phase2.ConflictGraph
import scala.collection.mutable

/** Accuracy measures of Section 6.1. */
object ErrorMeasures {

  /** Count, for every condition, how many join-view rows satisfy it, in one
    * Spark stage: each partition counts the distinct value combinations of
    * the attributes the conditions mention (attributes under a `NumRange`
    * read as `int`, the others as `string`), the driver merges the partial
    * counts and tests each condition once per combination with
    * [[Pred.matches]]. A null value matches no predicate.
    */
  def ccCounts(joinDf: DataFrame, conds: Seq[SelCond]): Seq[Long] = {
    if (conds.isEmpty) return Nil
    val attrs = conds.flatMap(_.preds.map(_.attr)).distinct
    val numeric = conds.flatMap(_.preds.collect { case p: NumRange => p.attr }).toSet
    val cols = attrs.map(a => col(a).cast(if (numeric(a)) "int" else "string"))
    val partial = joinDf.select(cols: _*).rdd.mapPartitions { rows =>
      val m = mutable.HashMap.empty[Row, Long]
      rows.foreach(r => m(r) = m.getOrElse(r, 0L) + 1L)
      m.iterator
    }.collect()
    val (combos, counts) = partial.toSeq.groupMapReduce(_._1)(_._2)(_ + _).toArray.unzip
    val pos = attrs.zipWithIndex.toMap
    conds.map { cond =>
      val preds = cond.preds.map(p => (p, pos(p.attr))).toArray
      combos.indices.foldLeft(0L) { (total, c) =>
        if (preds.forall { case (p, i) => p.matches(combos(c).get(i)) }) total + counts(c)
        else total
      }
    }
  }

  /** Relative CC error `|ĉ − c| / max(10, c)` per CC (Section 6.1). */
  def ccRelErrors(joinDf: DataFrame, ccs: Seq[CardinalityConstraint]): Seq[Double] = {
    val got = ccCounts(joinDf, ccs.map(_.cond))
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
    val compiled = ConflictGraph.compile(dcs, schema.r1)
    val violators = ConflictGraph.perGroup(r1Hat, schema.r1, col(schema.r1.fk)) {
      (_, group) => compiled.edges(group).flatten.distinct.map(i => group(i).key).iterator
    }
    val total = r1Hat.count()
    if (total == 0) 0.0 else violators.distinct().count().toDouble / total
  }
}
