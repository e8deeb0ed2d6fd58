package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.core.model._
import repro.PropSupport._

class PredicateSpec extends AnyFunSuite {

  test("CatEq matches equal value") { assert(CatEq("Rel", "Owner").matches("Owner")) }
  test("CatEq rejects other value") { assert(!CatEq("Rel", "Owner").matches("Spouse")) }
  test("CatEq rejects null") { assert(!CatEq("Rel", "Owner").matches(null)) }
  test("CatEq disjoint with different value") {
    assert(CatEq("Rel", "Owner").disjointWith(CatEq("Rel", "Spouse")))
  }
  test("CatEq not disjoint with same value") {
    assert(!CatEq("Rel", "Owner").disjointWith(CatEq("Rel", "Owner")))
  }
  test("CatEq subset only of itself") {
    assert(CatEq("Rel", "Owner").subsetOf(CatEq("Rel", "Owner")))
    assert(!CatEq("Rel", "Owner").subsetOf(CatEq("Rel", "Spouse")))
  }

  test("NumRange matches Int inside") { assert(NumRange("Age", 10, 20).matches(15)) }
  test("NumRange matches boundaries") {
    assert(NumRange("Age", 10, 20).matches(10))
    assert(NumRange("Age", 10, 20).matches(20))
  }
  test("NumRange rejects outside") {
    assert(!NumRange("Age", 10, 20).matches(9))
    assert(!NumRange("Age", 10, 20).matches(21))
  }
  test("NumRange matches only Int values") {
    assert(!NumRange("Age", 10, 20).matches(15L))
    assert(!NumRange("Age", 10, 20).matches("15"))
    assert(!NumRange("Age", 10, 20).matches(null))
  }
  test("NumRange disjointness") {
    assert(NumRange("Age", 0, 9).disjointWith(NumRange("Age", 10, 20)))
    assert(!NumRange("Age", 0, 10).disjointWith(NumRange("Age", 10, 20)))
  }
  test("NumRange subsetOf") {
    assert(NumRange("Age", 12, 18).subsetOf(NumRange("Age", 10, 20)))
    assert(!NumRange("Age", 9, 18).subsetOf(NumRange("Age", 10, 20)))
    assert(!NumRange("Age", 12, 21).subsetOf(NumRange("Age", 10, 20)))
  }
  test("empty NumRange is rejected") {
    assertThrows[IllegalArgumentException](NumRange("Age", 5, 4))
  }
  test("cross-type predicates are neither disjoint nor subset") {
    assert(!CatEq("A", "x").disjointWith(NumRange("A", 0, 1)))
    assert(!CatEq("A", "x").subsetOf(NumRange("A", 0, 1)))
    assert(!NumRange("A", 0, 1).subsetOf(CatEq("A", "x")))
  }

  private val owner25 = SelCond(Seq(CatEq("Rel", "Owner"), NumRange("Age", 25, 114)))
  private val owner = SelCond(Seq(CatEq("Rel", "Owner")))
  private val ownerMl = SelCond(Seq(CatEq("Rel", "Owner"), CatEq("MultiLing", "1")))
  private val young = SelCond(Seq(NumRange("Age", 0, 24)))

  test("SelCond duplicate attributes rejected") {
    assertThrows[IllegalArgumentException](
      SelCond(Seq(CatEq("Rel", "Owner"), CatEq("Rel", "Spouse"))))
  }
  test("SelCond matches conjunction") {
    assert(ownerMl.matches(Map("Rel" -> "Owner", "MultiLing" -> "1")))
    assert(!ownerMl.matches(Map("Rel" -> "Owner", "MultiLing" -> "0")))
    assert(!ownerMl.matches(Map("Rel" -> "Spouse", "MultiLing" -> "1")))
  }
  test("SelCond empty matches everything") {
    assert(SelCond.empty.matches(Map("anything" -> "1")))
  }
  test("SelCond missing attribute fails the match") {
    assert(!ownerMl.matches(Map("Rel" -> "Owner")))
  }
  test("SelCond disjointWith via common attribute") {
    assert(owner25.disjointWith(SelCond(Seq(CatEq("Rel", "Spouse")))))
    assert(!owner25.disjointWith(young) || owner25.disjointWith(young))
    assert(owner25.disjointWith(young)) // ages [25,114] vs [0,24]
  }
  test("SelCond not disjoint when no common constrained attribute clashes") {
    assert(!owner.disjointWith(young))
  }
  test("SelCond containment (Def 4.3)") {
    assert(owner25.containedIn(owner)) // superset of attrs, subset of values
    assert(!owner.containedIn(owner25))
    assert(!owner25.containedIn(young))
  }
  test("SelCond containment requires value subset on common attrs") {
    val a = SelCond(Seq(NumRange("Age", 0, 30)))
    val b = SelCond(Seq(NumRange("Age", 10, 20)))
    assert(b.containedIn(a) && !a.containedIn(b))
  }
  test("SelCond identicalTo") {
    assert(owner25.identicalTo(SelCond(Seq(NumRange("Age", 25, 114), CatEq("Rel", "Owner")))))
    assert(!owner25.identicalTo(owner))
  }
  test("onAttrs restriction") {
    assert(owner25.onAttrs(Set("Rel")).identicalTo(owner))
    assert(owner25.onAttrs(Set.empty).isEmpty)
  }

  // ---- properties
  private val rangeGen = for {
    lo <- Gen.choose(0, 100); w <- Gen.choose(0, 30)
  } yield NumRange("Age", lo, lo + w)

  test("property: disjoint ranges share no point") {
    checkProp(rangeGen, rangeGen) { (a, b) =>
      !a.disjointWith(b) || (0 to 130).forall(v => !(a.matches(v) && b.matches(v)))
    }
  }
  test("property: subset ranges imply implication of matches") {
    checkProp(rangeGen, rangeGen) { (a, b) =>
      !a.subsetOf(b) || (0 to 130).forall(v => !a.matches(v) || b.matches(v))
    }
  }
  test("property: disjointness is symmetric") {
    checkProp(rangeGen, rangeGen) { (a, b) =>
      a.disjointWith(b) == b.disjointWith(a)
    }
  }
}
