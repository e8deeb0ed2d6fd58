package perfbench

import repro.census.{CensusSchema, ConstraintGen}
import repro.core.model._

/** One benchmark workload: a census dataset shape plus a CC and a DC set.
  *
  * @param ccSet "good" (ConstraintGen's non-intersecting set) or "wide"
  *              (the intersecting set of [[WideCCs]])
  * @param dcSet "all" or "good" (see `Harness.dcSet`)
  */
final case class Workload(name: String, scale: Double, nAreas: Int,
                          ccSet: String, dcSet: String,
                          shufflePartitions: Int) {

  def ccPreds: Seq[(String, SelCond)] = ccSet match {
    case "good" => ConstraintGen.sccPreds(nAreas, bad = false)
    case "wide" => WideCCs.preds(nAreas)
  }

  def dcs: Seq[DenialConstraint] = dcSet match {
    case "all"  => ConstraintGen.sdcAll
    case "good" => ConstraintGen.sdcGood
  }

  /** Paper guarantee: a non-intersecting, consistent CC set is met exactly. */
  def ccErrorMustBeZero: Boolean = ccSet == "good"
}

/** What the structural guards look at: sizes of the inputs and of the split,
  * never timings.
  */
final case class Structure(combos: Int, nCCs: Int, s2: Int, ilpVars: Int,
                           minPartition: Long)

object Workloads {

  /** Why each workload was chosen is recorded in BENCHMARK.json and the
    * benchmark's README.
    */
  val all: Seq[Workload] = Seq(
    Workload("dense-partitions", 0.6, 1, "good", "all", 8),
    Workload("wide-bad-ccs", 1.0, 4, "wide", "good", 4))

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Violated guards, as messages; empty when the workload still exercises
    * the layer it was chosen for.
    */
  def guardFailures(w: Workload, s: Structure): Seq[String] = {
    def need(ok: Boolean, msg: String): Option[String] =
      if (ok) None else Some(s"${w.name}: $msg")
    w.name match {
      case "dense-partitions" => Seq(
        need(s.combos == 4, s"${s.combos} combos, expected 4"),
        need(s.minPartition >= 750,
             s"smallest partition has ${s.minPartition} tuples, expected >= 750")).flatten
      case "wide-bad-ccs" => Seq(
        need(2 * s.s2 >= s.nCCs, s"S2 = ${s.s2} of ${s.nCCs} CCs, expected >= half"),
        need(s.ilpVars > 0, "the ILP has no variables")).flatten
    }
  }
}

/** Seeded-by-construction generator of the wide, intersecting CC set.
  *
  * Table 5's 5-CC chains (root, left, right, left-quarter, left-quarter and
  * not multilingual), 5 chains per Tenure-Area combo. Chain q (numbered
  * across combos) uses `ConstraintGen.families(q mod 52)`; every 4th chain
  * reuses the previous chain's family shifted +6 years, as in
  * ConstraintGen's bad set. Overlapping but unequal R1 conditions across
  * combos make the CCs intersecting (Definition 4.4). Ids encode
  * (combo, chain, member) only, so they are stable across runs and PRs.
  */
object WideCCs {
  import CensusSchema._

  val ChainsPerCombo = 5

  def preds(nAreas: Int): Seq[(String, SelCond)] = {
    val combos = for (a <- 0 until nAreas; t <- TenuresInCCs) yield (t, areaName(a))
    val fams = ConstraintGen.families
    combos.zipWithIndex.flatMap { case ((t, a), i) =>
      (0 until ChainsPerCombo).flatMap { j =>
        val q = i * ChainsPerCombo + j
        val (fam, shift) =
          if (q % 4 == 3) (fams((q - 1) % fams.size), 6) else (fams(q % fams.size), 0)
        chain(fam, shift).map { case (member, ps) =>
          s"w_c${i}_k${j}_$member" -> SelCond(ps ++ Seq(CatEq("Tenure", t), CatEq("Area", a)))
        }
      }
    }
  }

  private def chain(f: ConstraintGen.Family, shift: Int): Seq[(String, Seq[Pred])] = {
    val b0 = math.min(f.lo + shift, MaxAge - 4)
    val b1 = math.min(f.hi + shift, MaxAge)
    val m = b0 + (b1 - b0) / 2
    val h = b0 + (b1 - b0) / 4
    val rel = CatEq("Rel", f.rel)
    Seq(
      "root" -> Seq(NumRange("Age", b0, b1), rel),
      "left" -> Seq(NumRange("Age", b0, m), rel),
      "right" -> Seq(NumRange("Age", m + 1, b1), rel),
      "lA" -> Seq(NumRange("Age", b0, h), rel),
      "lA0" -> Seq(NumRange("Age", b0, h), rel, CatEq("MultiLing", "0")))
  }
}
