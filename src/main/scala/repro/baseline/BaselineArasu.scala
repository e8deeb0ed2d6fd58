package repro.baseline

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import repro.core.model._
import repro.core.phase1.HybridCompleter
import repro.core.{CExtensionResult, RunTimings}

/** The two baseline algorithms of Section 6.1, modeled on Arasu et al. [5]:
  * Phase I pushes *all* CCs through the ILP (without or with all-way
  * marginal augmentation) and completes leftover tuples randomly; Phase II
  * ignores the DCs and assigns each tuple a uniformly random FK among the
  * candidates its B values admit. Tuples left invalid get a random existing
  * housing key (the baseline never extends R2).
  */
object BaselineArasu {

  def run(r1: DataFrame, r2: DataFrame, schema: DbSchema,
          ccs: Seq[CardinalityConstraint], withMarginals: Boolean): CExtensionResult = {
    val spark = r1.sparkSession
    import spark.implicits._
    val t0 = System.nanoTime()
    val mode = if (withMarginals) HybridCompleter.Mode.IlpOnlyMarginals
               else HybridCompleter.Mode.IlpOnly
    val p1 = HybridCompleter.run(r1, r2, schema, ccs, mode)
    val vjoin = p1.vjoin.cache()
    vjoin.count()
    val t1 = System.nanoTime()

    // Random FK assignment from the combo's candidate keys (seeded by K1).
    val palettes: IndexedSeq[IndexedSeq[Long]] = p1.comboSpace.combos.map(_.keys)

    val assigns: Dataset[(Long, Long)] = vjoin
      .select(col(schema.r1.key).cast("long"), col("__combo"))
      .as[(Long, Int)]
      .map { case (k1, combo) =>
        val rng = new scala.util.Random(0xBA5E ^ k1)
        val pool = palettes(if (combo >= 0) combo else rng.nextInt(palettes.size))
        k1 -> pool(rng.nextInt(pool.size))
      }
    val assignDf = assigns.toDF(schema.r1.key, schema.r1.fk)
    val r1Hat = r1.drop(schema.r1.fk).join(assignDf, Seq(schema.r1.key)).cache()
    r1Hat.count()
    val t2 = System.nanoTime()

    CExtensionResult(r1Hat, r2, vjoin,
      RunTimings((t1 - t0) / 1000000, (t2 - t1) / 1000000, (t2 - t0) / 1000000,
                 p1.stats))
  }
}
