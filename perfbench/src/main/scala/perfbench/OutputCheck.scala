package perfbench

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions.col
import repro.core.model._
import scala.collection.mutable

/** Independent check of one C-Extension output, sharing no logic with the
  * solver's Phase II or with `repro.eval`: every table is collected into
  * local memory and checked with plain Scala over the `SelCond` /
  * `DenialConstraint` fields.
  *
  * Checked: every R1 key appears exactly once in R̂1 with its attributes
  * unchanged; every FK exists in R̂2; R2 ⊆ R̂2 unchanged; the B values of
  * R̂1 ⋈ R̂2 equal the values of the tuple's Phase I combo in V_Join; each
  * fresh R̂2 tuple carries some combo's B values; no DC is violated among
  * tuples sharing an FK. CC counts are recounted for the caller to compare.
  */
object OutputCheck {

  /** R1-side attribute values of one tuple, in schema order. */
  final case class Attrs(cats: IndexedSeq[String], nums: IndexedSeq[Int])

  /** The solver's inputs, collected once per run. */
  final class Inputs(val schema: DbSchema, r1: DataFrame, r2: DataFrame) {
    val r1Rows: Map[Long, Attrs] = collectR1(schema, r1).map(t => t._1 -> t._3).toMap
    val r2Rows: Map[Long, IndexedSeq[String]] = collectR2(schema, r2).toMap
    require(r1Rows.size == r1.count() && r2Rows.size == r2.count(), "input keys are not unique")
  }

  /** @param failures    broken guarantees (empty = output is correct)
    * @param ccCounts    recount of every CC on R̂1 ⋈ R̂2, in CC order
    * @param dcViolating R̂1 tuples in some DC violation
    * @param fresh       R̂2 tuples whose key is not in R2
    */
  final case class Report(failures: Seq[String], ccCounts: IndexedSeq[Long],
                          dcViolating: Long, fresh: Long)

  private def collectR1(schema: DbSchema, df: DataFrame): Array[(Long, Option[Long], Attrs)] = {
    val s = schema.r1
    val hasFk = df.columns.contains(s.fk)
    val cols = Seq(col(s.key).cast("long"),
                   (if (hasFk) col(s.fk) else org.apache.spark.sql.functions.lit(null)).cast("long")) ++
      s.catAttrs.map(a => col(a).cast("string")) ++ s.numAttrs.map(a => col(a).cast("int"))
    df.select(cols: _*).collect().map { r =>
      val nc = s.catAttrs.size
      (r.getLong(0), if (r.isNullAt(1)) None else Some(r.getLong(1)),
       Attrs(s.catAttrs.indices.map(i => r.getString(2 + i)),
             s.numAttrs.indices.map(i => r.getInt(2 + nc + i))))
    }
  }

  private def collectR2(schema: DbSchema, df: DataFrame): Array[(Long, IndexedSeq[String])] = {
    val s = schema.r2
    df.select(col(s.key).cast("long") +: s.attrs.map(a => col(a).cast("string")): _*)
      .collect().map((r: Row) => r.getLong(0) -> s.attrs.indices.map(i => r.getString(1 + i)))
  }

  /** @param comboValues Phase I combo id → B values in `schema.r2.attrs` order */
  def run(in: Inputs, ccs: Seq[CardinalityConstraint], dcs: Seq[DenialConstraint],
          comboValues: Map[Int, IndexedSeq[String]],
          r1Hat: DataFrame, r2Hat: DataFrame, vjoin: DataFrame): Report = {
    val schema = in.schema
    val failures = mutable.ArrayBuffer.empty[String]
    var nFail = 0
    def fail(msg: => String): Unit = { nFail += 1; if (failures.size < 10) failures += msg }

    // R̂1: each R1 key exactly once, attributes unchanged, FK present.
    val hat1 = collectR1(schema, r1Hat)
    val seen = mutable.HashSet.empty[Long]
    for ((k, fk, attrs) <- hat1) {
      if (!seen.add(k)) fail(s"R1 key $k appears more than once in R̂1")
      in.r1Rows.get(k) match {
        case None => fail(s"R̂1 key $k is not an R1 key")
        case Some(a) => if (a != attrs) fail(s"R̂1 tuple $k changed its attributes")
      }
      if (fk.isEmpty) fail(s"R̂1 tuple $k has no FK")
    }
    val missing = in.r1Rows.size - in.r1Rows.keysIterator.count(seen)
    if (missing > 0) fail(s"$missing R1 keys are missing from R̂1")

    // R̂2: keys unique, R2 ⊆ R̂2 unchanged.
    val hat2 = mutable.HashMap.empty[Long, IndexedSeq[String]]
    for ((k, vals) <- collectR2(schema, r2Hat))
      if (hat2.put(k, vals).isDefined) fail(s"R̂2 key $k appears more than once")
    for ((k, vals) <- in.r2Rows) hat2.get(k) match {
      case None => fail(s"R2 tuple $k is missing from R̂2")
      case Some(v) => if (v != vals) fail(s"R2 tuple $k changed in R̂2")
    }
    val freshKeys = hat2.keySet.filterNot(in.r2Rows.contains)
    val comboSet = comboValues.values.toSet
    for (k <- freshKeys if !comboSet(hat2(k)))
      fail(s"fresh R̂2 tuple $k carries ${hat2(k)}, which is no combo's B values")

    // FKs exist; joined B values equal the Phase I combo's values.
    val comboOf = vjoin.select(col(schema.r1.key).cast("long"), col("__combo").cast("int"))
      .collect().map(r => r.getLong(0) -> r.getInt(1)).toMap
    if (comboOf.size != in.r1Rows.size) fail(s"V_Join has ${comboOf.size} keys, R1 has ${in.r1Rows.size}")
    for ((k, Some(fk), _) <- hat1) hat2.get(fk) match {
      case None => fail(s"FK $fk of R̂1 tuple $k does not exist in R̂2")
      case Some(b) => comboOf.get(k) match {
        case None => fail(s"R̂1 tuple $k is not in V_Join")
        case Some(c) if c >= 0 =>
          if (!comboValues.get(c).contains(b))
            fail(s"R̂1 tuple $k joins B values $b, Phase I chose combo $c = ${comboValues.get(c)}")
        case _ => () // invalid tuple: Phase I chose no B values
      }
    }

    // DCs over same-FK groups.
    val groups = hat1.collect { case (k, Some(fk), a) => fk -> (k, a) }
      .groupBy(_._1).valuesIterator.map(_.map(_._2))
    val compiled = dcs.map(compileDc(schema, _))
    val violating = mutable.HashSet.empty[Long]
    for (g <- groups if g.length > 1; dc <- compiled) dc(g.map(_._2)).foreach(i => violating += g(i)._1)
    if (violating.nonEmpty) fail(s"${violating.size} R̂1 tuples violate a DC")

    // CC recount on R̂1 ⋈ R̂2.
    val ccTests = ccs.map(cc => compileCc(schema, cc.cond)).toIndexedSeq
    val counts = Array.fill(ccs.size)(0L)
    for ((_, Some(fk), a) <- hat1; b <- hat2.get(fk); i <- ccTests.indices)
      if (ccTests(i)(a, b)) counts(i) += 1

    if (nFail > failures.size) failures += s"... ${nFail - failures.size} more failures"
    Report(failures.toSeq, counts.toIndexedSeq, violating.size.toLong, freshKeys.size.toLong)
  }

  /** Relative CC error `|ĉ − c| / max(10, c)` (Section 6.1 of the paper). */
  def relErrors(ccs: Seq[CardinalityConstraint], counts: Seq[Long]): IndexedSeq[Double] =
    ccs.zip(counts).map { case (cc, n) =>
      math.abs(n - cc.target).toDouble / math.max(10L, cc.target)
    }.toIndexedSeq

  // ---------------------------------------------------------- evaluators

  private type Test = (Attrs, IndexedSeq[String]) => Boolean

  private def compilePred(schema: DbSchema, p: Pred): Test = {
    val ci = schema.r1.catAttrs.indexOf(p.attr)
    val ni = schema.r1.numAttrs.indexOf(p.attr)
    val bi = schema.r2.attrs.indexOf(p.attr)
    p match {
      case CatEq(_, v) if ci >= 0 => (a, _) => a.cats(ci) == v
      case CatEq(_, v) if bi >= 0 => (_, b) => b(bi) == v
      case NumRange(_, lo, hi) if ni >= 0 => (a, _) => a.nums(ni) >= lo && a.nums(ni) <= hi
      case other => throw new IllegalArgumentException(s"cannot evaluate predicate $other")
    }
  }

  private def compileCc(schema: DbSchema, c: SelCond): Test = {
    val tests = c.preds.map(compilePred(schema, _)).toArray
    (a, b) => tests.forall(t => t(a, b))
  }

  private def cmp(op: CmpOp, l: Int, r: Int): Boolean = op match {
    case CmpOp.Lt => l < r
    case CmpOp.Gt => l > r
    case CmpOp.Le => l <= r
    case CmpOp.Ge => l >= r
    case CmpOp.EqOp => l == r
    case CmpOp.Ne => l != r
  }

  /** A DC as a function from one same-FK group to the indices of the group's
    * tuples that take part in a violation: every ordered choice of distinct
    * tuples for the slots is tried.
    */
  private def compileDc(schema: DbSchema, dc: DenialConstraint): IndexedSeq[Attrs] => Set[Int] = {
    val noB = IndexedSeq.empty[String]
    val slots = dc.slots.map(compileCc(schema, _)).toIndexedSeq
    val nIdx = schema.r1.numAttrs
    val cross = dc.cross.map(c => (c.i, nIdx.indexOf(c.attrI), c.op, c.j, nIdx.indexOf(c.attrJ), c.offset))
    require(cross.forall(c => c._2 >= 0 && c._5 >= 0), s"DC ${dc.name} compares a non-numeric attribute")
    group => {
      val cands = slots.map(s => group.indices.filter(i => s(group(i), noB)))
      val out = mutable.Set.empty[Int]
      def rec(slot: Int, chosen: List[Int]): Unit =
        if (slot == slots.size) {
          val t = chosen.reverse.toIndexedSeq
          if (cross.forall { case (i, ai, op, j, aj, off) =>
                cmp(op, group(t(i)).nums(ai), group(t(j)).nums(aj) + off) })
            out ++= t
        } else cands(slot).foreach(i => if (!chosen.contains(i)) rec(slot + 1, i :: chosen))
      rec(0, Nil)
      out.toSet
    }
  }
}
