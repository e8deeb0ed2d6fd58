package repro.census

import org.apache.spark.sql.DataFrame
import repro.core.model._
import repro.core.model.CmpOp._
import repro.eval.ErrorMeasures

/** Generators for the experimental constraint sets:
  * `S_DC_all` / `S_DC_good` following Table 4, and `S_CC_good` / `S_CC_bad`
  * following the structure of Table 5 (per-Rel age-interval chains crossed
  * with Tenure-Area and Area-only conditions; overlapping, non-nested age
  * intervals only in the bad set).
  *
  * Disjunctive paper DCs ("age outside [lo, hi]", "Rel ∈ {..}") are expanded
  * into conjunctive [[DenialConstraint]]s, one per alternative.
  */
object ConstraintGen {
  import CensusSchema._

  // -------------------------------------------------------------- DCs

  private def relCond(r: String): SelCond = SelCond(Seq(CatEq("Rel", r)))
  private def ownerCond(ml: Option[String], ageLo: Int = -1, ageHi: Int = -1): SelCond = {
    val preds = Seq(CatEq("Rel", Owner)) ++
      ml.map(CatEq("MultiLing", _)) ++
      (if (ageLo >= 0) Seq(NumRange("Age", ageLo, ageHi)) else Nil)
    SelCond(preds)
  }

  /** "No `other` can have age outside [A+loOff, A+hiOff]" → two DCs:
    * t2.Age < t1.Age+loOff, and t2.Age > t1.Age+hiOff.
    */
  private def ageGap(name: String, slot0: SelCond, other: String,
                     loOff: Int, hiOff: Int): Seq[DenialConstraint] = Seq(
    DenialConstraint(s"${name}_lt", Seq(slot0, relCond(other)),
                     Seq(CrossCond(1, "Age", Lt, 0, "Age", loOff))),
    DenialConstraint(s"${name}_gt", Seq(slot0, relCond(other)),
                     Seq(CrossCond(1, "Age", Gt, 0, "Age", hiOff))))

  /** Expansions of Table 4 DCs 1–8 (the "good" set: owner-vs-member age
    * gaps, which never create cliques in conflict graphs).
    */
  val sdcGood: Seq[DenialConstraint] = {
    val dc1 = ChildRels.flatMap(c => ageGap(s"dc1_$c", ownerCond(Some("0")), c, -69, -12))
    val dc2 = ChildRels.flatMap(c => ageGap(s"dc2_$c", ownerCond(Some("1")), c, -50, -12))
    val dc3 = Seq(Spouse, UnmarriedPartner)
      .flatMap(r => ageGap(s"dc3_$r", ownerCond(None), r, -50, 50))
    val dc4 = ageGap("dc4", ownerCond(None), Sibling, -35, 35)
    val dc5 = Seq(Parent, ParentInLaw)
      .flatMap(r => ageGap(s"dc5_$r", ownerCond(None), r, 12, 115))
    val dc6 = ageGap("dc6", ownerCond(None), Grandchild, -115, -30)
    val dc7 = ageGap("dc7", ownerCond(None), ChildInLaw, -69, -1)
    val dc8 = ageGap("dc8", ownerCond(None), FosterChild, -69, -12)
    dc1 ++ dc2 ++ dc3 ++ dc4 ++ dc5 ++ dc6 ++ dc7 ++ dc8
  }

  /** All 12 DCs of Table 4. DCs 9 and 12 create cliques (all owners of a
    * combo partition conflict pairwise), which is what makes this the "bad"
    * DC setting.
    */
  val sdcAll: Seq[DenialConstraint] = {
    val dc9 = Seq(DenialConstraint("dc9", Seq(relCond(Owner), relCond(Owner)), Nil))
    val dc10 = Seq(Grandchild, ChildInLaw).map(r =>
      DenialConstraint(s"dc10_$r", Seq(ownerCond(None, 0, 29), relCond(r)), Nil))
    val dc11 = Seq(Parent, ParentInLaw).map(r =>
      DenialConstraint(s"dc11_$r", Seq(ownerCond(None, 95, MaxAge), relCond(r)), Nil))
    val dc12 = Seq((Spouse, Spouse), (UnmarriedPartner, UnmarriedPartner),
                   (Spouse, UnmarriedPartner)).map { case (a, b) =>
      DenialConstraint(s"dc12_${a}_$b", Seq(relCond(a), relCond(b)), Nil)
    }
    sdcGood ++ dc9 ++ dc10 ++ dc11 ++ dc12
  }

  // -------------------------------------------------------------- CCs

  /** An R1-side predicate family: one Rel restricted to one age block.
    * Families partition the (Rel × age) space, so two CCs from different
    * families always have disjoint R1 conditions.
    */
  final case class Family(rel: String, lo: Int, hi: Int)

  private val ageBlocks = Seq((0, 29), (30, 59), (60, 89), (90, MaxAge))

  /** All 52 families (4 age blocks × 13 Rels), deterministic order. */
  val families: IndexedSeq[Family] =
    (for ((lo, hi) <- ageBlocks; r <- Rels) yield Family(r, lo, hi)).toIndexedSeq

  /** The 5-CC containment chain of a family, optionally age-shifted (the
    * shift is what manufactures intersecting CCs for the bad set).
    */
  private def chainPreds(f: Family, shift: Int): Seq[(String, Seq[Pred])] = {
    val b0 = math.min(f.lo + shift, MaxAge - 4)
    val b1 = math.min(f.hi + shift, MaxAge)
    val w = b1 - b0
    val m = b0 + w / 2
    val h = b0 + w / 4
    val rel = CatEq("Rel", f.rel)
    Seq(
      "root" -> Seq(NumRange("Age", b0, b1), rel),
      "left" -> Seq(NumRange("Age", b0, m), rel),
      "right" -> Seq(NumRange("Age", m + 1, b1), rel),
      "lA" -> Seq(NumRange("Age", b0, h), rel),
      "lA0" -> Seq(NumRange("Age", b0, h), rel, CatEq("MultiLing", "0")))
  }

  /** Untargeted CC predicates. When `bad`, every 4th combo reuses the
    * previous combo's family shifted by +6 years, producing overlapping,
    * non-nested age intervals across different Tenure-Area combos —
    * intersecting CCs per Definition 4.4 (≈ half the set ends up in S2).
    * When `!bad`, each family is used by exactly one combo, so every CC pair
    * is provably disjoint or contained.
    */
  def sccPreds(nAreas: Int, bad: Boolean): Seq[(String, SelCond)] = {
    val combos = for (a <- 0 until nAreas; t <- TenuresInCCs) yield (t, areaName(a))
    require(combos.size + nAreas <= families.size,
            s"too many areas ($nAreas) for the ${families.size} families")
    val tag = if (bad) "b" else "g"

    val comboCCs = combos.zipWithIndex.flatMap { case ((t, a), i) =>
      val (fam, shift) =
        if (bad && i % 4 == 3) (families(i - 1), 6) else (families(i), 0)
      chainPreds(fam, shift).map { case (suffix, preds) =>
        s"${tag}_c${i}_$suffix" ->
          SelCond(preds ++ Seq(CatEq("Tenure", t), CatEq("Area", a)))
      }
    }
    // Area-only CCs: a reserved family per area; the root constrains Area
    // alone and contains per-tenure left/right children.
    val areaCCs = (0 until nAreas).flatMap { ai =>
      val fam = families(combos.size + ai)
      val a = areaName(ai)
      val chain = chainPreds(fam, 0).toMap
      val root = s"${tag}_a${ai}_root" -> SelCond(chain("root") :+ CatEq("Area", a))
      val kids = for (t <- TenuresInCCs; side <- Seq("left", "right"))
        yield s"${tag}_a${ai}_${side}_$t" ->
          SelCond(chain(side) ++ Seq(CatEq("Tenure", t), CatEq("Area", a)))
      root +: kids
    }
    comboCCs ++ areaCCs
  }

  /** Turn predicates into CCs by counting them on the ground-truth join —
    * guaranteeing a consistent (zero-error-achievable) constraint set.
    */
  def withTargets(preds: Seq[(String, SelCond)], gtJoin: DataFrame): Seq[CardinalityConstraint] = {
    val counts = ErrorMeasures.ccCounts(gtJoin, preds.map(_._2))
    preds.zip(counts).map { case ((id, c), k) => CardinalityConstraint(id, c, k) }
  }

  def sccGood(gtJoin: DataFrame, nAreas: Int = 12): Seq[CardinalityConstraint] =
    withTargets(sccPreds(nAreas, bad = false), gtJoin)

  def sccBad(gtJoin: DataFrame, nAreas: Int = 12): Seq[CardinalityConstraint] =
    withTargets(sccPreds(nAreas, bad = true), gtJoin)
}
