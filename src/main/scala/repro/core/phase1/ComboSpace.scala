package repro.core.phase1

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core.model._

/** One distinct combination of R2's non-key attribute values, with the R2
  * keys that carry it (sorted): the candidate FK values of its tuples.
  */
final case class Combo(id: Int, values: Map[String, String], keys: IndexedSeq[Long])
    extends Serializable {

  /** Does this combo satisfy an R2-side condition? */
  def matchesR2Cond(cond: SelCond): Boolean =
    cond.matches(values)
}

/** The space of R2 `B1..Bq` value combinations present in the data.
  *
  * Phase I assigns each V_Join tuple a combo id; Phase II partitions the
  * conflict hypergraph by combo and colors each partition with its combo's
  * keys (candidate FK values are disjoint across combos, Section 5.2).
  */
final case class ComboSpace(schema: DbSchema, combos: IndexedSeq[Combo])
    extends Serializable {

  /** Largest R2 key; fresh keys are allocated above it. */
  def maxKey: Long = combos.map(_.keys.last).max

  /** Small DataFrame (comboId, B attrs...) for joining combo values back. */
  def asDataFrame(spark: org.apache.spark.sql.SparkSession): DataFrame = {
    import spark.implicits._
    val attrs = schema.r2.attrs
    val rows = combos.map(c => (c.id, attrs.map(c.values)))
    rows.toDF("__combo", "__vals")
      .select(col("__combo") +: attrs.zipWithIndex.map { case (a, i) =>
        col("__vals").getItem(i).as(a)
      }: _*)
  }
}

object ComboSpace {

  /** Enumerate distinct B-combos of `r2` with their sorted keys. Throws
    * `IllegalArgumentException` for an empty `r2` or a null B value.
    */
  def build(r2: DataFrame, schema: DbSchema): ComboSpace = {
    val attrs = schema.r2.attrs
    val rows = r2.groupBy(attrs.map(col): _*)
      .agg(sort_array(collect_list(col(schema.r2.key).cast("long"))))
      .collect()
    require(rows.nonEmpty, "R2 has no tuples")
    for (row <- rows; (a, i) <- attrs.zipWithIndex)
      require(!row.isNullAt(i), s"R2 column $a has null values")
    // Deterministic combo ids: order by the B values, rendered as `[b1,…,bq,`.
    val sorted = rows.sortBy(row => attrs.indices.map(row.get).mkString("[", ",", ","))
    val combos = sorted.zipWithIndex.map { case (row, id) =>
      val values = attrs.zipWithIndex.map { case (a, i) => a -> row.get(i).toString }.toMap
      Combo(id, values, row.getSeq[Long](attrs.size).toIndexedSeq)
    }.toIndexedSeq
    ComboSpace(schema, combos)
  }
}
