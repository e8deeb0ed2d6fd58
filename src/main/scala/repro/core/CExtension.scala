package repro.core

import org.apache.spark.sql.DataFrame
import repro.core.model._
import repro.core.phase1.{HybridCompleter, Phase1Stats}
import repro.core.phase2.FkAssigner

/** Timing summary of a full C-Extension run (feeds Figures 11/13). */
final case class RunTimings(phase1Ms: Long, phase2Ms: Long, totalMs: Long,
                            phase1: Phase1Stats)

/** Output of the two-phase solution: R̂1 with the FK column completed, R̂2
  * possibly extended with fresh tuples, the completed V_Join, and timings.
  */
final case class CExtensionResult(r1Hat: DataFrame, r2Hat: DataFrame,
                                  vjoin: DataFrame, timings: RunTimings)

/** End-to-end driver for the paper's two-phase solution (Figure 4):
  * Phase I ([[HybridCompleter]]) completes the join view from the CCs;
  * Phase II ([[FkAssigner]]) reverse-engineers the FK column under the DCs.
  */
object CExtension {

  def run(r1: DataFrame, r2: DataFrame, schema: DbSchema,
          ccs: Seq[CardinalityConstraint], dcs: Seq[DenialConstraint]): CExtensionResult = {
    val t0 = System.nanoTime()
    val p1 = HybridCompleter.run(r1, r2, schema, ccs, HybridCompleter.Mode.Hybrid)
    val vjoin = p1.vjoin.cache()
    vjoin.count() // materialize so Phase I timing is honest
    val t1 = System.nanoTime()
    val p2 = FkAssigner.run(vjoin, r1, r2, schema, dcs, ccs, p1.binning, p1.comboSpace)
    val t2 = System.nanoTime()
    CExtensionResult(p2.r1Hat, p2.r2Hat, vjoin,
      RunTimings((t1 - t0) / 1000000, (t2 - t1) / 1000000, (t2 - t0) / 1000000,
                 p1.stats))
  }
}
