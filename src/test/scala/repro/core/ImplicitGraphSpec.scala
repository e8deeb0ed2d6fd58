package repro.core

import org.scalacheck.Gen
import repro.PropSupport._
import repro.SparkSpec
import repro.census.{CensusSchema, ConstraintGen}
import repro.census.CensusSchema._
import repro.core.model._
import repro.core.model.CmpOp._
import repro.core.phase2.{ConflictGraph, ImplicitGraph, ListColoring, R1Tuple}
import repro.jobs.Phase2Scale

class ImplicitGraphSpec extends SparkSpec {
  import ConflictGraphSpec.P

  private def rel(r: String): SelCond = SelCond(Seq(CatEq("Rel", r)))

  /** DCs beyond the census and NAE sets, each taking a path of its own. */
  private val extraDcs = Seq(
    // An atom over two numeric attributes: enumerated.
    DenialConstraint("ageVar", Seq(rel(Owner), SelCond.empty), Seq(CrossCond(1, "Age", Gt, 0, "Var", 60))),
    // `≠`: enumerated; its pairs are also dc9's.
    DenialConstraint("ownerAgeNe", Seq(rel(Owner), rel(Owner)), Seq(CrossCond(0, "Age", Ne, 1, "Age", 0))),
    // A two-sided interval: holders inside the extremes are scanned.
    DenialConstraint("band", Seq(rel(Owner), rel(Housemate)),
      Seq(CrossCond(1, "Age", Ge, 0, "Age", -5), CrossCond(1, "Age", Le, 0, "Age", 5))),
    // `=`: a one-value interval.
    DenialConstraint("twins", Seq(rel(Sibling), rel(Sibling)), Seq(CrossCond(0, "Age", EqOp, 1, "Age", 0))))

  private val allDcs = ConstraintGen.sdcAll ++ ReductionSpec.dcs ++ extraDcs

  private val personGen: Gen[P] = for {
    rel <- Gen.frequency(1 -> Gen.const(Owner), 2 -> Gen.oneOf(Rels))
    ml <- Gen.oneOf("0", "1")
    age <- Gen.oneOf(Gen.choose(0, MaxAge), Gen.choose(30, 40))
    v <- Gen.choose(1, 3); alpha <- Gen.choose(0, 1); cls <- Gen.choose(1, 3)
  } yield P(rel, ml, age, v, alpha, cls)

  /** Tuples under a shuffled attribute order, so a position mix-up shows. */
  private val caseGen = for {
    ps <- Gen.choose(0, 40).flatMap(n => Gen.listOfN(n, personGen))
    cats <- Gen.oneOf(Seq("MultiLing", "Rel").permutations.toSeq)
    nums <- Gen.oneOf(Seq("Cls", "Age", "Alpha", "Var").permutations.toSeq)
    dcs <- Gen.frequency(1 -> Gen.const(allDcs), 2 -> Gen.someOf(allDcs).map(_.toSeq))
  } yield {
    val tuples = ps.toIndexedSeq.zipWithIndex.map { case (p, i) =>
      R1Tuple(0L, i.toLong, cats.map(p.value(_).toString).toArray, nums.map(p.value(_).asInstanceOf[Int]).toArray)
    }
    (tuples, ConflictGraph.compile(dcs, R1Schema("pid", cats, nums, "hid")))
  }

  /** Sorted, possibly empty (the invalid lane); fresh keys start above 50. */
  private val paletteGen: Gen[IndexedSeq[Long]] =
    Gen.choose(0, 8).flatMap(k => Gen.listOfN(k, Gen.choose(1L, 50L))).map(_.distinct.sorted.toIndexedSeq)

  test("property: degrees and colors equal explicit edges + colorLF, vertex by vertex") {
    checkProp(caseGen, paletteGen) { case ((tuples, compiled), palette) =>
      val n = tuples.size
      val edges = compiled.edges(tuples)
      val (expected, skipped) = ListColoring.colorLF(n, edges, Map.empty, palette ++ (1 to n).map(50L + _))
      val graph = new ImplicitGraph(compiled, tuples)
      val colors = graph.colorLF(palette, 50L)
      val incident = edges.flatten.groupBy(identity).map { case (v, es) => v -> es.size }
      skipped.isEmpty && (0 until n).forall(v =>
        graph.degrees(v) == incident.getOrElse(v, 0) && colors(v) == expected(v))
    }
  }

  test("a pair that an interval DC and an enumerated DC both produce is one edge") {
    val owner = (age: Int) => R1Tuple(0L, age.toLong, Array("0", Owner), Array(age))
    val compiled = ConflictGraph.compile(ConstraintGen.sdcAll.filter(_.name == "dc9") ++ extraDcs.filter(_.name == "ownerAgeNe"),
                                         R1Schema("pid", Seq("MultiLing", "Rel"), Seq("Age"), "hid"))
    val graph = new ImplicitGraph(compiled, IndexedSeq(owner(40), owner(50), owner(50)))
    // dc9 joins all three; ownerAgeNe repeats (40, 50) twice.
    assert(graph.degrees.toSeq == Seq(2, 2, 2))
    assert(graph.colorLF(IndexedSeq(7L), 10L).toSeq == Seq(7L, 11L, 12L))
  }

  test("a color whose holders straddle a two-sided interval is forbidden only by a holder inside it") {
    val compiled = ConflictGraph.compile(extraDcs.filter(_.name == "band"),
                                         R1Schema("pid", Seq("Rel"), Seq("Age"), "hid"))
    def t(r: String, age: Int) = R1Tuple(0L, 0L, Array(r), Array(age))
    // No edges, so index order: the housemates take key 1 before the owner.
    val apart = IndexedSeq(t(Housemate, 20), t(Housemate, 60), t(Owner, 40))
    assert(new ImplicitGraph(compiled, apart).colorLF(IndexedSeq(1L), 10L).toSeq == Seq(1L, 1L, 1L))
    val inside = IndexedSeq(t(Housemate, 20), t(Housemate, 60), t(Housemate, 43), t(Owner, 40))
    assert(new ImplicitGraph(compiled, inside).degrees.toSeq == Seq(0, 0, 1, 1))
    assert(new ImplicitGraph(compiled, inside).colorLF(IndexedSeq(1L), 10L).toSeq == Seq(1L, 1L, 1L, 11L))
  }

  test("a value near Int.MaxValue plus an offset does not wrap, in either path") {
    val dc = DenialConstraint("d", Seq(SelCond.empty, SelCond.empty), Seq(CrossCond(1, "Age", Lt, 0, "Age", 10)))
    val compiled = ConflictGraph.compile(Seq(dc), R1Schema("pid", Nil, Seq("Age"), "hid"))
    val ts = IndexedSeq(R1Tuple(0L, 0L, Array(), Array(Int.MaxValue - 5)), R1Tuple(0L, 1L, Array(), Array(0)))
    assert(compiled.edges(ts) == Vector(Vector(0, 1)))
    assert(new ImplicitGraph(compiled, ts).degrees.toSeq == Seq(1, 1))
  }

  test("scale guard: the 12x census combo-0 partition colors with DC error 0") {
    // About 17k tuples: the explicit hypergraph would hold about 10^8 edges.
    val (tuples, palette, maxKey) = Phase2Scale.partition(spark, 12.0)
    val compiled = ConflictGraph.compile(ConstraintGen.sdcAll, CensusSchema.schema.r1)
    val colors = new ImplicitGraph(compiled, tuples).colorLF(palette, maxKey)
    val keys = palette.toSet
    assert(tuples.size > 15000)
    assert(colors.length == tuples.size)
    assert(colors.forall(c => keys(c) || (c > maxKey && c <= maxKey + tuples.size)))
    for (members <- tuples.indices.groupBy(colors).values)
      assert(compiled.edges(members.map(tuples)).isEmpty)
  }
}
