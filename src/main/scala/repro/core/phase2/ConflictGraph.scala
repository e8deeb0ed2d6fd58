package repro.core.phase2

import org.apache.spark.sql.{Column, DataFrame, Dataset, Encoder}
import org.apache.spark.sql.functions._
import repro.core.model._
import scala.collection.mutable

/** An R1 tuple in schema-positional form, the one encoding the DC checks
  * read: `cats` holds the values of `R1Schema.catAttrs` and `nums` those of
  * `R1Schema.numAttrs`, each in schema order, so `cats ++ nums` follows
  * `R1Schema.attrs`. `key` is K1; `group` is the key the caller partitions on.
  */
final case class R1Tuple(group: Long, key: Long, cats: Array[String], nums: Array[Int])

/** A slot predicate bound to a value position: `pos` indexes `cats` when
  * `numeric` is false, `nums` otherwise.
  */
private final case class SlotAtom(pos: Int, numeric: Boolean, pred: Pred) {
  def matches(t: R1Tuple): Boolean =
    if (numeric) pred.matches(t.nums(pos)) else pred.matches(t.cats(pos))
}

/** A cross atom `t_i.nums(posI) op (t_j.nums(posJ) + offset)` over the tuples
  * chosen for slots `i` and `j`.
  */
private final case class CrossAtom(i: Int, posI: Int, op: CmpOp, j: Int, posJ: Int, offset: Int) {
  def holds(ts: IndexedSeq[R1Tuple], chosen: Array[Int]): Boolean =
    op.eval(ts(chosen(i)).nums(posI), ts(chosen(j)).nums(posJ).toLong + offset)
}

/** A DC with attribute names resolved to positions. `crossAt(s)` holds the
  * cross atoms whose later slot is `s`, checked as soon as `s` is filled.
  */
private final case class CompiledDc(slots: IndexedSeq[IndexedSeq[SlotAtom]],
                                    crossAt: IndexedSeq[IndexedSeq[CrossAtom]]) {
  def arity: Int = slots.size

  /** Call `f` on each assignment of distinct tuples to the slots, slot `s`
    * drawn from `cands(s)`, that satisfies the cross atoms, until `f`
    * returns true; returns whether it did. Slot conditions are the caller's
    * filter. `f` receives the slot → tuple index array, reused across calls.
    */
  def exists(ts: IndexedSeq[R1Tuple], cands: Int => Iterable[Int])(f: Array[Int] => Boolean): Boolean = {
    val chosen = new Array[Int](arity)
    def rec(slot: Int): Boolean =
      if (slot == arity) f(chosen)
      else cands(slot).exists { i =>
        chosen(slot) = i
        var k = 0
        while (k < slot && chosen(k) != i) k += 1
        k == slot && crossAt(slot).forall(_.holds(ts, chosen)) && rec(slot + 1)
      }
    rec(0)
  }
}

/** A DC set compiled against one R1 schema by [[ConflictGraph.compile]]. */
final class CompiledDcs private[phase2] (private[phase2] val dcs: Vector[CompiledDc]) extends Serializable {

  /** Enumerate hyperedges among `tuples`: for each DC, every assignment of
    * distinct tuples to its slots that satisfies the slot conditions and
    * the cross atoms. Returned edges are sorted, deduplicated vertex-index
    * vectors, in order of first discovery.
    */
  def edges(tuples: IndexedSeq[R1Tuple]): Vector[Vector[Int]] = {
    val out = mutable.LinkedHashSet.empty[Vector[Int]]
    for (dc <- dcs) {
      val slotCands = dc.slots.map(atoms => tuples.indices.filter(i => atoms.forall(_.matches(tuples(i)))))
      dc.exists(tuples, slotCands) { chosen => out += chosen.sorted.toVector; false }
    }
    out.toVector
  }
}

/** Conflict hypergraph construction (Definition 5.1): DC compilation, and
  * the explicit edge enumeration that DC-error measurement runs per FK
  * group and that tests hold [[ImplicitGraph]] to.
  *
  * Vertices are tuple indices; a hyperedge is a set of tuples that would
  * jointly violate some DC if they shared a foreign key. Enumeration is
  * slot-filtered: for each DC only tuples satisfying a slot's single-tuple
  * condition are candidates for that slot, and a cross atom prunes an
  * assignment as soon as both its slots are filled.
  */
object ConflictGraph {

  /** Resolve every attribute of `dcs` to its position in `r1`. Throws
    * `IllegalArgumentException` for an attribute `r1` lacks, a range on a
    * categorical attribute, or a cross atom on a categorical attribute or
    * on a slot outside the DC — each would otherwise never fire.
    */
  def compile(dcs: Seq[DenialConstraint], r1: R1Schema): CompiledDcs = {
    def numPos(dc: DenialConstraint, a: String): Int = {
      val p = r1.numAttrs.indexOf(a)
      require(p >= 0, s"DC ${dc.name}: cross atom on $a, which is not a numeric R1 attribute")
      p
    }
    def slotAtom(dc: DenialConstraint, p: Pred): SlotAtom = {
      val (ci, ni) = (r1.catAttrs.indexOf(p.attr), r1.numAttrs.indexOf(p.attr))
      require(ci >= 0 || ni >= 0, s"DC ${dc.name}: ${p.attr} is not an R1 attribute")
      require(ni >= 0 || !p.isInstanceOf[NumRange],
              s"DC ${dc.name}: range on categorical attribute ${p.attr}")
      if (ni >= 0) SlotAtom(ni, numeric = true, p) else SlotAtom(ci, numeric = false, p)
    }
    new CompiledDcs(dcs.toVector.map { dc =>
      val cross = dc.cross.toIndexedSeq.map { c =>
        require(Seq(c.i, c.j).forall(s => s >= 0 && s < dc.arity),
                s"DC ${dc.name}: cross atom on slots (${c.i}, ${c.j}) of an arity-${dc.arity} DC")
        CrossAtom(c.i, numPos(dc, c.attrI), c.op, c.j, numPos(dc, c.attrJ), c.offset)
      }
      CompiledDc(dc.slots.map(_.preds.map(slotAtom(dc, _)).toIndexedSeq).toIndexedSeq,
                 (0 until dc.arity).map(s => cross.filter(c => math.max(c.i, c.j) == s)))
    })
  }

  /** The grouping pass shared by Phase II and DC-error measurement: read
    * `df`'s R1 rows as positional tuples, partition them by `group` (cast
    * to long), and call `f` once per group with the group key and the
    * group's tuples sorted by K1. Callers compile their DCs on the driver
    * first, so a bad DC fails before any job runs.
    */
  def perGroup[T: Encoder](df: DataFrame, r1: R1Schema, group: Column)
                          (f: (Long, IndexedSeq[R1Tuple]) => Iterator[T]): Dataset[T] = {
    val spark = df.sparkSession
    import spark.implicits._
    df.select(group.cast("long").as("group"), col(r1.key).cast("long").as("key"),
              array(r1.catAttrs.map(c => col(c).cast("string")): _*).as("cats"),
              array(r1.numAttrs.map(c => col(c).cast("int")): _*).as("nums"))
      .as[R1Tuple]
      .groupByKey(_.group)
      .flatMapGroups { (g: Long, it: Iterator[R1Tuple]) =>
        f(g, it.toIndexedSeq.sortBy(_.key))
      }
  }

  /** Enumerate hyperedges among `tuples` given as attribute → value maps,
    * all with the first tuple's attributes; those it holds as `Int` are
    * numeric, the rest categorical. Encodes the tuples and delegates to the
    * compiled evaluator.
    */
  def edges(tuples: IndexedSeq[Map[String, Any]],
            dcs: Seq[DenialConstraint]): Vector[Vector[Int]] = {
    if (tuples.isEmpty) return Vector.empty
    val (nums, cats) = tuples.head.keys.toSeq.partition(a => tuples.head(a).isInstanceOf[Int])
    val encoded = tuples.indices.map { i =>
      R1Tuple(0L, i.toLong, cats.map(a => Option(tuples(i)(a)).map(_.toString).orNull).toArray,
              nums.map(a => tuples(i)(a).asInstanceOf[Int]).toArray)
    }
    compile(dcs, R1Schema("", cats, nums, "")).edges(encoded)
  }
}
