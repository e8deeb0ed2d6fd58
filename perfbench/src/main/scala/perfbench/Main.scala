package perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.file.Paths
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.census.{CensusData, CensusSchema, ConstraintGen}
import repro.core.CExtension
import repro.core.model._
import repro.core.phase1.{ComboSpace, HybridCompleter, Phase1Stats}
import repro.core.phase2.FkAssigner
import repro.eval.{ErrorMeasures, Harness}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** The C-Extension benchmark: one workload, one seed, one JVM.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
  * }}}
  *
  * Closed loop, one client, one solve at a time, Spark `local[k]` with
  * k = min(4, cores). Set-up (session start, data generation and caching,
  * CC target counting) runs `SetupReps` times and reports the median. After
  * `WarmUps` solves, `CExtension.run` is timed in a loop for `--seconds`.
  * Every solve's output goes through [[OutputCheck]]. With `--trace 1` each
  * iteration also runs a traced solve, replays the sub-layers ([[Replay]])
  * and times the error measurement (`measure_s`) on the traced output;
  * per-layer metrics are medians over iterations.
  *
  * Prints every metric as `name = value unit`, then, as the last line, one
  * JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
  * an output check or a structural guard fails.
  */
object Main {

  val SetupReps = 3
  val WarmUps = 1
  val MinTimedSolves = 3

  /** End-to-end metrics of the JSON result (all never 0), with units. The
    * others are printed only: they are 0 on the seed code, or drift with
    * load on a shared machine as much as wall time does (`solve_cpu_s`)
    * without adding a steadier view.
    */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "solve_s" -> "s", "tuples_per_s" -> "tuples/s", "peak_heap_mb" -> "MB")

  /** Per-layer metrics of the traced run, with units. */
  val PerLayer: Seq[(String, String)] = Seq(
    "census.generate_ms" -> "ms", "census.targets_ms" -> "ms",
    "phase1.binning_ms" -> "ms", "phase1.bins" -> "count",
    "phase1.combospace_ms" -> "ms", "phase1.combos" -> "count",
    "phase1.alloc_ms" -> "ms", "phase1.allocs" -> "count",
    "ccrel.split_ms" -> "ms", "ccrel.pairs" -> "count", "ccrel.s1" -> "count", "ccrel.s2" -> "count",
    "phase1.hasse_ms" -> "ms", "phase1.shortfalls" -> "count",
    "phase1.ilp_ms" -> "ms", "ilp.vars" -> "count", "ilp.rows" -> "count", "ilp.l1" -> "count",
    "phase1_ms" -> "ms", "phase1.other_ms" -> "ms",
    "phase2_ms" -> "ms", "phase2.partitions" -> "count",
    "phase2.part_tuples_max" -> "count", "phase2.part_tuples_mean" -> "count",
    "phase2.edges_sum" -> "count", "phase2.edges_max" -> "count",
    "phase2.graph_ms_sum" -> "ms", "phase2.graph_ms_max" -> "ms",
    "phase2.color_ms_sum" -> "ms", "phase2.color_ms_max" -> "ms",
    "phase2.skipped" -> "count", "phase2.skip_ratio" -> "ratio",
    "eval.cc_ms" -> "ms", "eval.dc_ms" -> "ms",
    "trace.solve_ms" -> "ms", "trace.overhead_ms" -> "ms", "trace.coverage" -> "ratio")

  final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean, workDir: String)

  def main(args: Array[String]): Unit = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, usage(s"missing --$k"))
    val opts = Opts(need("workload"), need("seed").toLong, need("seconds").toInt,
                    need("trace") == "1", need("work-dir"))
    val w = Workloads.byName(opts.workload).getOrElse(
      usage(s"unknown workload ${opts.workload}; one of ${Workloads.all.map(_.name).mkString(", ")}"))
    sys.exit(new Run(w, opts).run())
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"perfbench: $msg\n" +
      "usage: perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>")
    sys.exit(2)
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def session(w: Workload, threads: Int, workDir: String): SparkSession = {
    val s = SparkSession.builder()
      .master(s"local[$threads]")
      .appName(s"perfbench-${w.name}")
      .config("spark.sql.shuffle.partitions", w.shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      // Without adaptive re-planning, every solve runs the same fixed plan.
      .config("spark.sql.adaptive.enabled", value = false)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", Paths.get(workDir, "spark-local").toString)
      .config("spark.sql.warehouse.dir", Paths.get(workDir, "spark-warehouse").toUri.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }
}

/** Largest heap occupancy after any GC that ended inside a recorded window. */
object HeapWatch {
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == MemoryType.HEAP).map(_.getName).toSet
  private val gcs = mutable.ArrayBuffer.empty[(Long, Long)] // (end, JVM uptime ms; bytes after)
  private val windows = mutable.ArrayBuffer.empty[(Long, Long)]

  def install(): Unit = ManagementFactory.getGarbageCollectorMXBeans.asScala.foreach {
    case e: NotificationEmitter =>
      e.addNotificationListener(new NotificationListener {
        def handleNotification(n: Notification, hb: AnyRef): Unit =
          if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
            val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData]).getGcInfo
            val after = info.getMemoryUsageAfterGc.asScala
              .collect { case (pool, u) if heapPools(pool) => u.getUsed }.sum
            HeapWatch.synchronized { gcs += (info.getEndTime -> after) }
          }
      }, null, null)
    case _ => ()
  }

  def uptime: Long = ManagementFactory.getRuntimeMXBean.getUptime

  def window[T](body: => T): T = {
    val t0 = uptime
    try body finally { val t1 = uptime; synchronized { windows += (t0 -> t1) } }
  }

  /** Heap in use right after a full collection. */
  def usedAfterFullGc(): Long = {
    System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
  }

  /** Peak after-GC occupancy inside the windows, or `floor` if higher. */
  def peakMb(floor: Long): Double = synchronized {
    val inside = gcs.collect { case (end, used) if windows.exists(w => end >= w._1 && end <= w._2) => used }
    (inside :+ floor).max / (1024.0 * 1024.0)
  }
}

/** One benchmark run of one workload. */
final class Run(w: Workload, opts: Main.Opts) {
  import Main._

  private val threads = math.min(4, Runtime.getRuntime.availableProcessors)
  private val schema = CensusSchema.schema
  private val tracer = new Tracer
  private val dcs = w.dcs

  private var attempted = 0
  private var failed = 0
  private val failures = mutable.ArrayBuffer.empty[String]
  private var lastErrs: IndexedSeq[Double] = IndexedSeq.empty
  private var lastFresh = 0L
  private val solveCpuS = mutable.ArrayBuffer.empty[Double]
  private val os = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean]
  private def cpuNanos: Long = os.getProcessCpuTime

  /** Progress line on stderr, stamped with seconds since JVM start. */
  private def note(what: String): Unit =
    System.err.println(f"# ${HeapWatch.uptime / 1e3}%7.1f s  $what")

  def run(): Int = {
    HeapWatch.install()
    note("start")

    // ---------------------------------------------------------------- set-up
    var spark: SparkSession = null
    var data: Harness.Data = null
    var ccs: Seq[CardinalityConstraint] = Nil
    val setupS = (1 to SetupReps).map { _ =>
      if (spark != null) { Harness.release(data); spark.stop() }
      val t0 = System.nanoTime()
      tracer.span("setup") {
        spark = tracer.span("setup.session")(session(w, threads, opts.workDir))
        data = tracer.span("census.generate")(Harness.data(spark, w.scale, w.nAreas, opts.seed))
        ccs = tracer.span("census.targets")(ConstraintGen.withTargets(w.ccPreds, data.gtJoin))
      }
      (System.nanoTime() - t0) / 1e9
    }
    val r1 = CensusData.blind(data.persons)
    val r2 = data.housing
    println(s"# workload ${w.name}: scale ${w.scale}, ${w.nAreas} areas, |R1| = ${data.nPersons}, " +
      s"|R2| = ${data.nHouses}, ${ccs.size} CCs (${w.ccSet}), ${dcs.size} DCs (${w.dcSet}), " +
      s"local[$threads], ${w.shufflePartitions} shuffle partitions, seed ${opts.seed}, " +
      s"Spark ${spark.version}, max heap ${Runtime.getRuntime.maxMemory >> 20} MB")

    note("set-up done")
    val inputs = new OutputCheck.Inputs(schema, r1, r2)
    val comboValues = ComboSpace.build(r2, schema).combos
      .map(c => c.id -> schema.r2.attrs.map(c.values).toIndexedSeq).toMap
    val replay = new Replay(tracer, schema, threads)

    note("inputs collected")
    val nCombos = r2.select(schema.r2.attrs.map(org.apache.spark.sql.functions.col): _*)
      .distinct().count().toInt

    // ----------------------------------------------------------------- solves
    def untracedSolve(): (CExtensionOut, Double) = {
      val c0 = cpuNanos
      val t0 = System.nanoTime()
      val res = HeapWatch.window(CExtension.run(r1, r2, schema, ccs, dcs))
      solveCpuS += (cpuNanos - c0) / 1e9
      (CExtensionOut(res.r1Hat, res.r2Hat, res.vjoin, res.timings.phase1), (System.nanoTime() - t0) / 1e9)
    }

    def tracedSolve(): (CExtensionOut, Double) = {
      tracer.request += 1
      val out = tracer.span("solve") {
        val (p1, vjoin) = tracer.span("phase1") {
          val p = HybridCompleter.run(r1, r2, schema, ccs, HybridCompleter.Mode.Hybrid)
          val v = p.vjoin.cache()
          v.count()
          (p, v)
        }
        tracer.span("phase2") {
          val p = FkAssigner.run(vjoin, r1, r2, schema, dcs, ccs, p1.binning, p1.comboSpace)
          p.r1Hat.cache().count()
          CExtensionOut(p.r1Hat, p.r2Hat, vjoin, p1.stats)
        }
      }
      (out, tracer.ms("solve").last / 1e3)
    }

    /** A solve that throws counts as attempted and failed. */
    def attempt[T](body: => T): Option[T] =
      try Some(body) catch {
        case e: Exception =>
          attempted += 1; failed += 1; failures += s"solve threw $e"
          None
      }

    // Structural guards: input and split sizes of the first solve, never timings.
    var structure: Option[Structure] = None
    val warm = (1 to WarmUps).flatMap(_ => attempt(untracedSolve()).map { case (out, s) =>
      if (structure.isEmpty) {
        val sizes = Replay.partitionSizes(out.vjoin).values
        structure = Some(Structure(nCombos, ccs.size, out.stats.nS2, out.stats.ilpVars,
                                   sizes.foldLeft(Long.MaxValue)(math.min)))
        println(s"# structure: $nCombos combos, S2 = ${out.stats.nS2}, ${out.stats.ilpVars} ILP variables, " +
          s"${sizes.size} partitions of ${sizes.minOption.getOrElse(0L)}..${sizes.maxOption.getOrElse(0L)} tuples")
      }
      check(out, inputs, comboValues, ccs)
      release(out)
      s
    })
    println(s"# warm-up solves: ${warm.map(s => f"$s%.3f").mkString(", ")} s")

    val guards = structure.toSeq.flatMap(Workloads.guardFailures(w, _))
    guards.foreach(g => System.err.println(s"perfbench: structural guard failed: $g"))

    val solveS = mutable.ArrayBuffer.empty[Double]
    val measureS = mutable.ArrayBuffer.empty[Double]
    var retainedPeak = 0L
    val iterations = mutable.ArrayBuffer.empty[mutable.Map[String, Double]]
    val palettes: Map[Int, IndexedSeq[Long]] = {
      val comboOf = comboValues.map(_.swap)
      inputs.r2Rows.toSeq.groupBy(kv => comboOf(kv._2))
        .map { case (c, kvs) => c -> kvs.map(_._1).sorted.toIndexedSeq }
    }
    val tEnd = System.nanoTime() + opts.seconds * 1000000000L
    val minIterations = if (opts.trace) 1 else MinTimedSolves
    while (failed == 0 && (solveS.size < minIterations || System.nanoTime() < tEnd)) {
      attempt(untracedSolve()).foreach { case (out, s) =>
        solveS += s
        retainedPeak = math.max(retainedPeak, HeapWatch.usedAfterFullGc())
        note(f"solve $s%.3f s, heap after full GC ${retainedPeak >> 20} MB")
        check(out, inputs, comboValues, ccs)
        release(out)
        note("checked")
      }
      if (opts.trace && failed == 0) attempt(tracedSolve()).foreach { case (tout, ts) =>
        val m = mutable.Map.empty[String, Double]
        m("trace.solve_ms") = ts * 1e3
        m("phase1_ms") = tracer.ms("phase1").last
        m("phase2_ms") = tracer.ms("phase2").last
        m("trace.coverage") = (m("phase1_ms") + m("phase2_ms")) / m("trace.solve_ms")
        replay.phase1(r1, r2, ccs, m)
        replay.phase2(tout.vjoin, dcs, palettes, m)
        check(tout, inputs, comboValues, ccs).foreach(c => measureS ++= measure(tout, c, ccs))
        release(tout)
        m("eval.cc_ms") = tracer.ms("eval.cc").lastOption.getOrElse(Double.NaN)
        m("eval.dc_ms") = tracer.ms("eval.dc").lastOption.getOrElse(Double.NaN)
        m("phase1.other_ms") = m("phase1_ms") - Seq("phase1.binning_ms", "phase1.combospace_ms",
          "ccrel.split_ms", "phase1.hasse_ms", "phase1.ilp_ms", "phase1.alloc_ms").map(m).sum
        iterations += m
      }
    }
    note("solves done")
    // ---------------------------------------------------------------- report
    val solveMedian = median(solveS.toSeq)
    val e2e = Map(
      "setup_s" -> median(setupS),
      "solve_s" -> solveMedian,
      // Warm-up solves excluded, as for solve_s.
      "solve_cpu_s" -> median(solveCpuS.drop(WarmUps).toSeq),
      "tuples_per_s" -> data.nPersons / solveMedian,
      "peak_heap_mb" -> HeapWatch.peakMb(retainedPeak))
    println(f"setup_s = ${e2e("setup_s")}%.4f s (median of $SetupReps set-ups: ${setupS.map(x => f"$x%.3f").mkString(", ")})")
    println(f"solve_s = $solveMedian%.4f s (median of n = ${solveS.size} timed solves; max ${solveS.maxOption.getOrElse(Double.NaN)}%.4f s; " +
      "no higher percentile has 10 samples beyond it)")
    println(f"solve_cpu_s = ${e2e("solve_cpu_s")}%.4f s (process CPU time per solve, all threads)")
    println(f"tuples_per_s = ${e2e("tuples_per_s")}%.1f tuples/s (|R1| = ${data.nPersons})")
    if (opts.trace) println(f"measure_s = ${median(measureS.toSeq)}%.4f s (median of ${measureS.size})")
    println(f"peak_heap_mb = ${e2e("peak_heap_mb")}%.1f MB")
    println(f"cc_err_mean = ${if (lastErrs.isEmpty) 0.0 else lastErrs.sum / lastErrs.size}%.6f ratio")
    println(f"cc_err_median = ${median(lastErrs)}%.6f ratio")
    println(f"fresh_r2_frac = ${lastFresh.toDouble / data.nHouses}%.6f ratio ($lastFresh fresh R2 tuples)")
    println(f"fail_frac = ${failed.toDouble / attempted}%.6f ratio ($failed of $attempted solves)")

    val metrics: Seq[(String, Double, String)] =
      if (!opts.trace) EndToEnd.map { case (n, u) => (n, e2e(n), u) }
      else {
        val solveMs = median(iterations.map(_("trace.solve_ms")).toSeq)
        val layer = PerLayer.map { case (n, u) =>
          val v = n match {
            case "census.generate_ms" => median(tracer.ms("census.generate"))
            case "census.targets_ms" => median(tracer.ms("census.targets"))
            case "trace.overhead_ms" => solveMs - solveMedian * 1e3
            case _ => median(iterations.map(_(n)).toSeq)
          }
          (n, v, u)
        }
        layer.foreach { case (n, v, u) => println(s"$n = $v $u") }
        layer
      }
    tracer.write(Paths.get(opts.workDir, s"trace-${w.name}-${opts.seed}-${if (opts.trace) 1 else 0}.json"))

    failures.foreach(f => System.err.println(s"perfbench: output check failed: $f"))
    val correct = failed == 0 && guards.isEmpty
    val json = metrics.map { case (n, v, u) =>
      s""""$n": {"value": ${if (v.isNaN || v.isInfinite) "null" else v.toString}, "unit": "$u"}""" }
      .mkString("{", ", ", "}")
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": $json}""")
    spark.stop()
    if (correct) 0 else 1
  }

  private def problem(msg: String): Unit = failures += msg

  /** Check one solve's output; a failed check counts the solve as failed.
    * @return the recount, when the output is correct
    */
  private def check(out: CExtensionOut, inputs: OutputCheck.Inputs,
                    comboValues: Map[Int, IndexedSeq[String]],
                    ccs: Seq[CardinalityConstraint]): Option[Checked] = {
    attempted += 1
    val before = failures.size
    val checked =
      try {
        val rep = OutputCheck.run(inputs, ccs, dcs, comboValues, out.r1Hat, out.r2Hat, out.vjoin)
        rep.failures.foreach(problem)
        val errs = OutputCheck.relErrors(ccs, rep.ccCounts)
        if (w.ccErrorMustBeZero && errs.exists(_ > 0))
          problem(s"CC error ${errs.sum / errs.size} on a non-intersecting, consistent CC set")
        lastErrs = errs
        lastFresh = rep.fresh
        Some(Checked(errs, rep.dcViolating.toDouble / inputs.r1Rows.size))
      } catch { case e: Exception => problem(s"check threw $e"); None }
    if (failures.size > before) { failed += 1; None } else checked
  }

  /** Time the error measurement every `Harness.runOne` row pays, and
    * compare its results with the check's recount.
    * @return seconds spent, when the results agree
    */
  private def measure(out: CExtensionOut, recount: Checked,
                      ccs: Seq[CardinalityConstraint]): Option[Double] = {
    val t0 = System.nanoTime()
    val joined =
      if (schema.r1.fk == schema.r2.key) out.r1Hat.join(out.r2Hat, Seq(schema.r1.fk))
      else out.r1Hat.join(out.r2Hat, out.r1Hat(schema.r1.fk) === out.r2Hat(schema.r2.key))
    val evalErrs = tracer.span("eval.cc")(ErrorMeasures.ccRelErrors(joined, ccs))
    val evalDc = tracer.span("eval.dc")(ErrorMeasures.dcViolationFraction(out.r1Hat, schema, dcs))
    val secs = (System.nanoTime() - t0) / 1e9
    val before = failures.size
    val bad = ccs.indices.filter(i => evalErrs(i) != recount.ccErrs(i))
    if (bad.nonEmpty) problem(s"${bad.size} CC errors from repro.eval disagree with the recount " +
      s"(first: ${ccs(bad.head).id}: ${evalErrs(bad.head)} vs ${recount.ccErrs(bad.head)})")
    if (evalDc != recount.dcFrac) problem(s"DC error from repro.eval $evalDc, recount ${recount.dcFrac}")
    if (failures.size > before) { failed += 1; None } else Some(secs)
  }

  private def release(out: CExtensionOut): Unit = { out.vjoin.unpersist(); out.r1Hat.unpersist() }
}

/** Recount of one checked output: CC errors and DC violation fraction. */
final case class Checked(ccErrs: IndexedSeq[Double], dcFrac: Double)

/** The three tables a C-Extension solve produces, and its Phase I split sizes. */
final case class CExtensionOut(r1Hat: DataFrame, r2Hat: DataFrame, vjoin: DataFrame,
                               stats: Phase1Stats)
