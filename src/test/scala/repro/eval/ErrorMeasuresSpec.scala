package repro.eval

import org.apache.spark.sql.Row
import org.scalacheck.Gen
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}
import repro.core.model._
import repro.PropSupport.checkProp
import repro.{Oracle, PaperExample, SparkSpec}

class ErrorMeasuresSpec extends SparkSpec {

  /** SQL rendering of a conjunctive condition for the DuckDB oracle (which
    * stores all columns as VARCHAR, so numeric attrs need casts).
    */
  private def sqlOf(cond: SelCond): String =
    if (cond.isEmpty) "TRUE"
    else cond.preds.map {
      case CatEq(a, v)        => s"$a = '$v'"
      case NumRange(a, lo, hi) => s"CAST($a AS INT) BETWEEN $lo AND $hi"
    }.mkString(" AND ")

  private def gtJoin = {
    import spark.implicits._
    // small hand-built join view: (Rel, MultiLing, Age, Area)
    Seq(("Owner", "0", 40, "Chicago"), ("Owner", "1", 30, "Chicago"),
        ("Owner", "0", 25, "NYC"), ("Spouse", "1", 20, "Chicago"),
        ("Child", "0", 5, "NYC"))
      .toDF("Rel", "MultiLing", "Age", "Area")
  }

  /** Row-by-row recount over collected rows that reads the predicate fields
    * directly: a categorical predicate needs an equal string, a range a
    * number inside it; null matches neither.
    */
  private def recount(rows: Seq[Row], cond: SelCond): Long =
    rows.count(r => cond.preds.forall {
      case CatEq(a, v) => r.getAs[Any](a) match {
        case s: String => s == v
        case _         => false
      }
      case NumRange(a, lo, hi) => r.getAs[Any](a) match {
        case n: java.lang.Number => lo <= n.longValue && n.longValue <= hi
        case _                   => false
      }
    }).toLong

  private val ageWindows =
    (0 until 150).map(i => SelCond(Seq(NumRange("Age", i % 50, i % 50 + 10))))

  test("ccCounts matches direct filtering") {
    val conds = Seq(SelCond(Seq(CatEq("Rel", "Owner"))), SelCond(Seq(CatEq("Area", "Chicago"))),
                    SelCond(Seq(NumRange("Age", 0, 24))), SelCond.empty)
    assert(ErrorMeasures.ccCounts(gtJoin, conds) == Seq(3L, 3L, 2L, 5L))
  }

  test("ccCounts agrees with DuckDB for every paper CC") {
    import spark.implicits._
    val df = gtJoin
    val counts = ErrorMeasures.ccCounts(df, PaperExample.ccs.map(_.cond))
    val got = PaperExample.ccs.map(_.id).zip(counts).toDF("id", "cnt")
    Oracle.assertEquivalent(got, PaperExample.ccs.map(cc =>
      s"SELECT '${cc.id}' AS id, COUNT(*) AS cnt FROM j WHERE ${sqlOf(cc.cond)}")
      .mkString(" UNION ALL "), "j" -> df)
  }

  test("ccCounts equals a row-by-row recount on views with nulls and a Long column") {
    import spark.implicits._
    val cat = Gen.option(Gen.oneOf("a", "b", "c"))
    val row = for (r <- cat; ar <- cat; age <- Gen.option(Gen.choose(0L, 9L))) yield (r, ar, age)
    val view = Gen.choose(0, 30).flatMap(Gen.listOfN(_, row))
    def maybe(g: Gen[Pred]): Gen[Option[Pred]] = Gen.oneOf(Gen.const(None), g.map(Some(_)))
    val cond = for {
      r   <- maybe(Gen.oneOf("a", "b", "c").map(CatEq("Rel", _)))
      ar  <- maybe(Gen.oneOf("a", "b", "c").map(CatEq("Area", _)))
      age <- maybe(for (lo <- Gen.choose(0, 9); hi <- Gen.choose(lo, 9)) yield NumRange("Age", lo, hi))
    } yield SelCond(Seq(r, ar, age).flatten)
    val conds = Gen.choose(1, 6).flatMap(Gen.listOfN(_, cond))
    checkProp(view, conds) { (rows, cs) =>
      val df = rows.toDF("Rel", "Area", "Age")
      val collected = df.collect().toSeq
      ErrorMeasures.ccCounts(df, cs) == cs.map(recount(collected, _))
    }
  }

  test("ccCounts of 150 CCs equals a row-by-row recount") {
    val rows = gtJoin.collect().toSeq
    assert(ErrorMeasures.ccCounts(gtJoin, ageWindows) == ageWindows.map(recount(rows, _)))
  }

  test("ccCounts of 150 CCs runs exactly one Spark job") {
    val sc = spark.sparkContext
    val df = gtJoin
    def inGroup[T](group: String)(body: => T): T = {
      sc.setJobGroup(group, group)
      try body finally sc.clearJobGroup()
    }
    inGroup("ccCounts-150")(ErrorMeasures.ccCounts(df, ageWindows))
    // Job events reach the status tracker in order: once a later job shows
    // up, every job of the counted group has too.
    inGroup("ccCounts-marker")(sc.parallelize(Seq(1)).count())
    eventually(timeout(Span(10, Seconds))) {
      assert(sc.statusTracker.getJobIdsForGroup("ccCounts-marker").nonEmpty)
    }
    assert(sc.statusTracker.getJobIdsForGroup("ccCounts-150").length == 1)
  }

  test("relative CC error uses max(10, target) as denominator") {
    val ccs = Seq(
      CardinalityConstraint("small", SelCond(Seq(CatEq("Rel", "Owner"))), 5), // got 3
      CardinalityConstraint("big", SelCond(Seq(CatEq("Area", "Chicago"))), 100)) // got 3
    val errs = ErrorMeasures.ccRelErrors(gtJoin, ccs)
    assert(math.abs(errs(0) - 2.0 / 10) < 1e-9)
    assert(math.abs(errs(1) - 97.0 / 100) < 1e-9)
  }

  test("median and mean helpers") {
    assert(ErrorMeasures.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(ErrorMeasures.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
    assert(ErrorMeasures.median(Nil) == 0.0)
    assert(ErrorMeasures.mean(Seq(1.0, 2.0, 3.0)) == 2.0)
    assert(ErrorMeasures.mean(Nil) == 0.0)
  }

  test("DC error counts violating tuples, not pairs (paper example: 2/9)") {
    import spark.implicits._
    // paper §6.1: if the first two Persons tuples shared hid 2, error = 2/9
    val r1 = Seq(
      (1L, 75, "Owner", "0", 2L), (2L, 75, "Owner", "1", 2L), (3L, 25, "Owner", "0", 3L),
      (4L, 25, "Owner", "1", 4L), (5L, 24, "Spouse", "0", 1L), (6L, 10, "Child", "1", 5L),
      (7L, 10, "Child", "1", 5L), (8L, 30, "Owner", "0", 6L), (9L, 30, "Owner", "1", 7L),
    ).toDF("pid", "Age", "Rel", "MultiLing", "hid")
    val err = ErrorMeasures.dcViolationFraction(r1, PaperExample.schema, PaperExample.dcs)
    assert(math.abs(err - 2.0 / 9) < 1e-9)
  }

  test("DC error is zero for an all-distinct FK assignment") {
    import spark.implicits._
    val r1 = (1L to 9L).map(i => (i, 30, "Owner", "0", i)).toSeq
      .toDF("pid", "Age", "Rel", "MultiLing", "hid")
    assert(ErrorMeasures.dcViolationFraction(r1, PaperExample.schema, PaperExample.dcs) == 0.0)
  }

  test("DC error with empty DC set is zero") {
    import spark.implicits._
    val r1 = Seq((1L, 30, "Owner", "0", 1L)).toDF("pid", "Age", "Rel", "MultiLing", "hid")
    assert(ErrorMeasures.dcViolationFraction(r1, PaperExample.schema, Nil) == 0.0)
  }
}
