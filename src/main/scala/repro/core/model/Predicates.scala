package repro.core.model

/** Atomic selection predicate over a single attribute.
  *
  * The paper's linear CCs use conjuncts of the form `A o c` with
  * `o ∈ {=, <, >, ≤}`; over a finite integer domain every such conjunct is
  * equivalent to either an equality on a categorical attribute or an
  * inclusive interval on a numeric attribute, which is what we model.
  */
sealed trait Pred extends Serializable {
  /** Attribute the predicate constrains. */
  def attr: String

  /** Does a concrete attribute value satisfy the predicate? */
  def matches(value: Any): Boolean

  /** Do the two predicates (on the same attribute) select disjoint values? */
  def disjointWith(other: Pred): Boolean

  /** Is this predicate's value set a subset of `other`'s (same attribute)? */
  def subsetOf(other: Pred): Boolean
}

/** Equality on a categorical (string-valued) attribute. */
final case class CatEq(attr: String, value: String) extends Pred {
  override def matches(v: Any): Boolean = v != null && v.toString == value

  override def disjointWith(other: Pred): Boolean = other match {
    case CatEq(_, v) => v != value
    case _           => false
  }

  override def subsetOf(other: Pred): Boolean = other match {
    case CatEq(_, v) => v == value
    case _           => false
  }
}

/** Inclusive interval on an integer attribute. */
final case class NumRange(attr: String, lo: Int, hi: Int) extends Pred {
  require(lo <= hi, s"empty range [$lo,$hi] on $attr")

  override def matches(v: Any): Boolean = v match {
    case i: Int => i >= lo && i <= hi
    case _      => false
  }

  override def disjointWith(other: Pred): Boolean = other match {
    case NumRange(_, l, h) => h < lo || l > hi
    case _                 => false
  }

  override def subsetOf(other: Pred): Boolean = other match {
    case NumRange(_, l, h) => l <= lo && hi <= h
    case _                 => false
  }
}

/** Conjunctive selection condition: at most one predicate per attribute.
  *
  * An attribute without a predicate is unconstrained (full domain).
  */
final case class SelCond(preds: Seq[Pred]) extends Serializable {
  require(preds.map(_.attr).distinct.size == preds.size,
          s"one predicate per attribute expected, got $preds")

  /** Predicate lookup by attribute. */
  val byAttr: Map[String, Pred] = preds.map(p => p.attr -> p).toMap

  def attrs: Set[String] = byAttr.keySet

  def isEmpty: Boolean = preds.isEmpty

  /** Do categorical values (attribute → value) satisfy every conjunct? A
    * range never matches a categorical value.
    */
  def matches(values: Map[String, String]): Boolean =
    preds.forall(p => p.matches(values.getOrElse(p.attr, null)))

  /** Restriction of the condition to a subset of attributes. */
  def onAttrs(keep: Set[String]): SelCond = SelCond(preds.filter(p => keep(p.attr)))

  /** True when no value combination can satisfy both conditions:
    * some common attribute has disjoint predicates.
    */
  def disjointWith(other: SelCond): Boolean =
    preds.exists(p => other.byAttr.get(p.attr).exists(p.disjointWith))

  /** Definition 4.3: `this ⊆ other` iff `this` constrains a superset of
    * `other`'s attributes and is at least as restrictive on each common one.
    */
  def containedIn(other: SelCond): Boolean =
    other.attrs.subsetOf(attrs) &&
      other.preds.forall(op => byAttr(op.attr).subsetOf(op))

  /** Same predicate set (used by Definition 4.2's second disjointness case). */
  def identicalTo(other: SelCond): Boolean =
    byAttr == other.byAttr
}

object SelCond {
  val empty: SelCond = SelCond(Seq.empty)
}
