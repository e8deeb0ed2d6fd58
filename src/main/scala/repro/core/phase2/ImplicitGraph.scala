package repro.core.phase2

import repro.core.model.CmpOp
import repro.core.model.CmpOp._
import scala.collection.mutable

/** The conflict hypergraph of one partition (Definition 5.1), kept
  * implicit: Algorithm 3 runs on it without materializing its edges.
  *
  * Every distinct DC slot condition is evaluated once per tuple; tuples
  * that satisfy the same conditions form a class. An arity-2 DC whose cross
  * atoms compare one numeric attribute of its two slots with `<`, `≤`, `>`,
  * `≥` or `=` (every census DC) is an *interval DC*: a tuple's partners in
  * the other slot are the tuples of the classes meeting that slot's
  * condition whose value lies in an interval around the tuple's own. Every
  * other DC (arity ≥ 3, `≠`, atoms over two attributes, a second numeric
  * attribute) is enumerated on its own, as [[CompiledDcs.edges]] does.
  *
  * Degrees and colors equal those of [[CompiledDcs.edges]] followed by
  * [[ListColoring.colorLF]], vertex by vertex.
  */
final class ImplicitGraph(compiled: CompiledDcs, tuples: IndexedSeq[R1Tuple]) {
  import ImplicitGraph._

  private val n = tuples.size
  private val dcs = compiled.dcs

  private val conds: Vector[IndexedSeq[SlotAtom]] = dcs.flatMap(_.slots).distinct
  private val condId: Map[IndexedSeq[SlotAtom], Int] = conds.zipWithIndex.toMap
  private def cond(dc: CompiledDc, s: Int): Int = condId(dc.slots(s))

  /** The attribute an interval DC bounds (-1 for none), or None when the
    * DC is not an interval DC.
    */
  private def boundAttr(dc: CompiledDc): Option[Int] = {
    val atoms = dc.crossAt.flatten
    val attrs = atoms.flatMap(a => Seq(a.posI, a.posJ)).distinct
    if (dc.arity == 2 && attrs.size <= 1 && atoms.forall(a => a.i != a.j && a.op != Ne))
      Some(attrs.headOption.getOrElse(-1))
    else None
  }

  /** The one numeric attribute interval DCs may bound: the most common. */
  private val attr: Int = dcs.flatMap(boundAttr).filter(_ >= 0).groupBy(identity)
    .maxByOption { case (a, as) => (as.size, -a) }.fold(-1)(_._1)
  private val (intervalDcs, enumDcs) =
    dcs.partition(dc => boundAttr(dc).exists(a => a == -1 || a == attr))
  private val enumSlots: Vector[(CompiledDc, IndexedSeq[Int])] =
    enumDcs.map(dc => dc -> dc.slots.indices.map(cond(dc, _)))

  private val value: Array[Int] = Array.tabulate(n)(v => if (attr >= 0) tuples(v).nums(attr) else 0)

  /** Each tuple's class, and `sat(class)(cond)`. */
  private val (classOf: Array[Int], sat: Array[Array[Boolean]]) = {
    val ids = mutable.LinkedHashMap.empty[Vector[Boolean], Int]
    val classOf = Array.tabulate(n)(v =>
      ids.getOrElseUpdate(conds.map(_.forall(_.matches(tuples(v)))), ids.size))
    (classOf, ids.keys.map(_.toArray).toArray)
  }
  private val nClasses = sat.length

  /** One probe per interval DC and slot, unbounded ones first; an
    * interval that is empty for every value is dropped.
    */
  private val probes: Vector[Probe] = (for (dc <- intervalDcs; s <- 0 to 1) yield {
    var (lo, hi) = (NoLo, NoHi)
    dc.crossAt.flatten.foreach { a =>
      // `x op (w + k)` in slot i is `w flip(op) (x - k)`; bound w by x.
      val (op, k) = if (a.i == s) (flip(a.op), -a.offset.toLong) else (a.op, a.offset.toLong)
      op match {
        case Lt => hi = math.min(hi, k - 1)
        case Le => hi = math.min(hi, k)
        case Gt => lo = math.max(lo, k + 1)
        case Ge => lo = math.max(lo, k)
        case _  => lo = math.max(lo, k); hi = math.min(hi, k)
      }
    }
    Probe(cond(dc, s), cond(dc, 1 - s), lo, hi)
  }).filter(p => p.lo <= p.hi)
    .sortBy(p => p.lo != NoLo || p.hi != NoHi)

  private val probesOf: Array[Vector[Probe]] = Array.tabulate(nClasses)(k => probes.filter(p => sat(k)(p.self)))

  private def keyOf(v: Int): Long = classOf(v).toLong << 32 | (value(v) & 0xffffffffL)

  /** Does an interval DC put `u` and `w` in its two slots? */
  private def intervalPair(u: Int, w: Int): Boolean =
    probesOf(classOf(u)).exists(p => sat(classOf(w))(p.other) && p.covers(value(u), value(w)))

  /** Number of distinct interval-DC partners of a tuple of class `k` with
    * value `x`, itself excluded: per partner class, the union of the
    * probes' intervals, counted by binary search over the class's values.
    */
  private def intervalDegree(k: Int, x: Int, sortedVals: Array[Array[Int]]): Int = {
    var d = 0
    for (c <- 0 until nClasses) {
      val ivs = probesOf(k).filter(p => sat(c)(p.other)).map(p => (p.from(x), p.to(x))).sortBy(_._1)
      var (lo, hi, open) = (0L, 0L, false)
      def flush(): Unit = if (open) {
        d += rank(sortedVals(c), hi, orEqual = true) - rank(sortedVals(c), lo, orEqual = false)
        if (c == k && lo <= x && x <= hi) d -= 1
      }
      for ((l, h) <- ivs) {
        if (open && l <= hi) hi = math.max(hi, h)
        else { flush(); lo = l; hi = h; open = true }
      }
      flush()
    }
    d
  }

  /** Each vertex's number of distinct hyperedges, as the incidence list of
    * [[CompiledDcs.edges]] counts them.
    */
  val degrees: Array[Int] = {
    val sortedVals = Array.tabulate(nClasses)(c => (0 until n).filter(classOf(_) == c).map(value).sorted.toArray)
    val memo = mutable.HashMap.empty[Long, Int]
    val deg = Array.tabulate(n)(v => memo.getOrElseUpdate(keyOf(v), intervalDegree(classOf(v), value(v), sortedVals)))
    val pairs = mutable.HashSet.empty[(Int, Int)]
    val hyper = mutable.HashSet.empty[Vector[Int]]
    for ((dc, slotConds) <- enumSlots) {
      val cands = slotConds.map(k => (0 until n).filter(v => sat(classOf(v))(k)))
      dc.exists(tuples, cands) { ch =>
        if (dc.arity == 2) pairs += ((ch.min, ch.max)) else hyper += ch.sorted.toVector
        false
      }
    }
    for ((u, w) <- pairs if !intervalPair(u, w)) { deg(u) += 1; deg(w) += 1 }
    for (e <- hyper; v <- e) deg(v) += 1
    deg
  }

  /** Algorithm 3 over `palette` (ascending, distinct) followed by |tuples|
    * fresh colors `freshBase + 1, freshBase + 2, ...`: vertices in
    * non-increasing degree order (ties by index) each take the lowest color
    * no hyperedge forbids. A color is forbidden for `v` when some DC
    * assignment puts `v` in one slot and tuples already holding the color
    * in all the others, so only the holders of a color are tested. Tuples
    * with the same class and value share a cursor below which every color
    * is forbidden by an interval DC; holders only grow, so it only moves
    * forward.
    */
  def colorLF(palette: IndexedSeq[Long], freshBase: Long): Array[Long] = {
    val p = palette.size
    val nConds = conds.size
    // Per held color, a row: its holders and, per condition, the least and
    // greatest value among the holders meeting it.
    val row = Array.fill(p + n)(-1)
    val holders = mutable.ArrayBuffer.empty[mutable.ArrayBuffer[Int]]
    val minV = Array.fill(n * nConds)(Int.MaxValue)
    val maxV = Array.fill(n * nConds)(Int.MinValue)
    val condsOf = Array.tabulate(nClasses)(k => conds.indices.filter(sat(k)).toArray)

    def hold(v: Int, c: Int): Unit = {
      if (row(c) < 0) { row(c) = holders.size; holders += mutable.ArrayBuffer.empty[Int] }
      holders(row(c)) += v
      for (k <- condsOf(classOf(v))) {
        val i = row(c) * nConds + k
        minV(i) = math.min(minV(i), value(v))
        maxV(i) = math.max(maxV(i), value(v))
      }
    }

    def intervalForbidden(v: Int, c: Int): Boolean = row(c) >= 0 && probesOf(classOf(v)).exists { pr =>
      val i = row(c) * nConds + pr.other
      val (lo, hi) = (pr.from(value(v)), pr.to(value(v)))
      minV(i) <= maxV(i) && maxV(i) >= lo && minV(i) <= hi &&
        (minV(i) >= lo || maxV(i) <= hi ||
          holders(row(c)).exists(h => sat(classOf(h))(pr.other) && lo <= value(h) && value(h) <= hi))
    }

    def enumForbidden(v: Int, c: Int): Boolean = row(c) >= 0 && enumSlots.exists { case (dc, slotConds) =>
      val hs = holders(row(c))
      slotConds.indices.exists { s =>
        sat(classOf(v))(slotConds(s)) && {
          val cands = slotConds.indices.map(t =>
            if (t == s) Seq(v) else hs.filter(h => sat(classOf(h))(slotConds(t))))
          dc.exists(tuples, cands)(_ => true)
        }
      }
    }

    val cursor = mutable.HashMap.empty[Long, Int]
    val out = new Array[Long](n)
    for (v <- (0 until n).sortBy(v => (-degrees(v), v))) {
      var c = cursor.getOrElse(keyOf(v), 0)
      while (intervalForbidden(v, c)) c += 1
      cursor(keyOf(v)) = c
      while (intervalForbidden(v, c) || enumForbidden(v, c)) c += 1
      hold(v, c)
      out(v) = if (c < p) palette(c) else freshBase + (c - p + 1)
    }
    out
  }
}

private object ImplicitGraph {
  private val NoLo = Long.MinValue
  private val NoHi = Long.MaxValue

  /** The partner of a tuple with value `x` in slot condition `self` must
    * meet condition `other` and have a value in `[from(x), to(x)]`.
    */
  private final case class Probe(self: Int, other: Int, lo: Long, hi: Long) {
    def from(x: Int): Long = if (lo == NoLo) NoLo else x + lo
    def to(x: Int): Long = if (hi == NoHi) NoHi else x + hi
    def covers(x: Int, w: Int): Boolean = from(x) <= w && w <= to(x)
  }

  private def flip(op: CmpOp): CmpOp = op match {
    case Lt => Gt; case Gt => Lt; case Le => Ge; case Ge => Le; case o => o
  }

  /** Number of `vals` (sorted) below `t`, or at most `t` when `orEqual`. */
  private def rank(vals: Array[Int], t: Long, orEqual: Boolean): Int = {
    var (l, h) = (0, vals.length)
    while (l < h) {
      val m = (l + h) >>> 1
      if (vals(m) < t || (orEqual && vals(m) == t)) l = m + 1 else h = m
    }
    l
  }
}
