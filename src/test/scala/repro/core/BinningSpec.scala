package repro.core

import repro.core.model._
import repro.core.phase1.{Binning, Interval}
import repro.{PaperExample, SparkSpec}

class BinningSpec extends SparkSpec {
  import PaperExample.schema

  test("intervalize splits at CC endpoints (paper Example 4.1)") {
    val ivls = Binning.intervalize(0, 114, Seq(NumRange("Age", 0, 24)))
    assert(ivls == IndexedSeq(Interval(0, 24), Interval(25, 114)))
  }
  test("intervalize with interior range creates three intervals") {
    val ivls = Binning.intervalize(0, 100, Seq(NumRange("Age", 10, 20)))
    assert(ivls == IndexedSeq(Interval(0, 9), Interval(10, 20), Interval(21, 100)))
  }
  test("intervalize clamps cuts outside the data domain") {
    val ivls = Binning.intervalize(30, 60, Seq(NumRange("Age", 0, 114)))
    assert(ivls == IndexedSeq(Interval(30, 60)))
  }
  test("intervalize with no ranges yields one interval") {
    assert(Binning.intervalize(5, 9, Nil) == IndexedSeq(Interval(5, 9)))
  }
  test("overlapping ranges produce atomic intervals for all of them") {
    val rs = Seq(NumRange("Age", 10, 49), NumRange("Age", 30, 70))
    val ivls = Binning.intervalize(0, 100, rs)
    for (iv <- ivls; r <- rs) {
      // each interval is inside or outside each range, never straddling
      assert(iv.subsetOf(r) || r.hi < iv.lo || r.lo > iv.hi)
    }
  }

  test("paper example produces the 4 expected bins") {
    val b = Binning.build(PaperExample.r1(spark).drop("hid"), schema, PaperExample.ccs)
    assert(b.bins.size == 4)
    // data ages span [10, 75], so intervalization at the CC cut 24|25 gives
    // [10,24] and [25,75]
    val byKey = b.bins.map(x => (x.cats("Rel"), x.cats("MultiLing"), x.nums("Age")) -> x.count).toMap
    assert(byKey(("Owner", "0", Interval(25, 75))) == 3)
    assert(byKey(("Owner", "1", Interval(25, 75))) == 3)
    assert(byKey(("Spouse", "0", Interval(10, 24))) == 1)
    assert(byKey(("Child", "1", Interval(10, 24))) == 2)
  }

  test("bin counts sum to |R1|") {
    val r1 = PaperExample.r1(spark).drop("hid")
    val b = Binning.build(r1, schema, PaperExample.ccs)
    assert(b.bins.map(_.count).sum == r1.count())
  }

  test("bin ids are deterministic across builds") {
    val r1 = PaperExample.r1(spark).drop("hid")
    val b1 = Binning.build(r1, schema, PaperExample.ccs)
    val b2 = Binning.build(r1, schema, PaperExample.ccs)
    assert(b1.bins == b2.bins)
  }

  test("withBinId assigns every tuple a bin consistent with its values") {
    val r1 = PaperExample.r1(spark).drop("hid")
    val b = Binning.build(r1, schema, PaperExample.ccs)
    val rows = b.withBinId(r1).select("pid", "Rel", "MultiLing", "Age", "__bin").collect()
    assert(rows.length == 9)
    rows.foreach { r =>
      val bin = b.bins(r.getInt(4))
      assert(bin.cats("Rel") == r.getString(1))
      assert(bin.cats("MultiLing") == r.getString(2))
      assert(bin.nums("Age").contains(r.getInt(3)))
    }
  }

  test("withBinId group sizes match bin counts") {
    val r1 = PaperExample.r1(spark).drop("hid")
    val b = Binning.build(r1, schema, PaperExample.ccs)
    val sizes = b.withBinId(r1).groupBy("__bin").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    b.bins.foreach(bin => assert(sizes(bin.id) == bin.count))
  }

  test("withBinId keeps one row per tuple when values concatenate alike") {
    import spark.implicits._
    val twoCats = DbSchema(R1Schema("pid", Seq("C1", "C2"), Nil, "fk"), R2Schema("k", Seq("B")))
    // Joined with or without a separator, some pair below spells the same key.
    val r1 = Seq((1L, "ab", "c"), (2L, "a", "bc"), (3L, "ab", "c"),
                 (4L, "a\u0001", "b"), (5L, "a", "\u0001b")).toDF("pid", "C1", "C2")
    val b = Binning.build(r1, twoCats, Nil)
    assert(b.bins.size == 4)
    val withBin = b.withBinId(r1)
    assert(withBin.count() == r1.count())
    withBin.collect().foreach { r =>
      val bin = b.bins(r.getAs[Int]("__bin"))
      assert(bin.cats == Map("C1" -> r.getAs[String]("C1"), "C2" -> r.getAs[String]("C2")))
    }
  }

  test("bin matchesR1Cond honors interval containment") {
    val b = Binning.build(PaperExample.r1(spark).drop("hid"), schema, PaperExample.ccs)
    val youngBins = b.bins.filter(_.matchesR1Cond(SelCond(Seq(NumRange("Age", 0, 24)))))
    assert(youngBins.map(_.cats("Rel")).toSet == Set("Spouse", "Child"))
    val ownerBins = b.bins.filter(_.matchesR1Cond(SelCond(Seq(CatEq("Rel", "Owner")))))
    assert(ownerBins.size == 2)
  }
}
