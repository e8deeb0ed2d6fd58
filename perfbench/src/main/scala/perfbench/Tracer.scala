package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** In-memory span recorder. A span has a name, start and end, and the span
  * that caused it; spans of one solve share a request id. Counts are attached
  * to the innermost open span of the calling thread. Everything is written
  * out once, when the run ends.
  */
final class Tracer {
  final case class Span(id: Int, parent: Int, request: Int, name: String,
                        startNs: Long, endNs: Long, thread: String) {
    def ms: Double = (endNs - startNs) / 1e6
  }
  final case class Count(span: Int, name: String, value: Double)

  private val spans = mutable.ArrayBuffer.empty[Span]
  private val counts = mutable.ArrayBuffer.empty[Count]
  private val open = new ThreadLocal[List[Int]] { override def initialValue(): List[Int] = Nil }
  private var nextId = 0
  @volatile var request = 0

  /** Run `body` inside a span; `parent` defaults to the thread's open span. */
  def span[T](name: String, parent: Int = -2)(body: => T): T = {
    val id = synchronized { nextId += 1; nextId }
    val p = if (parent != -2) parent else open.get.headOption.getOrElse(-1)
    open.set(id :: open.get)
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open.set(open.get.tail)
      synchronized { spans += Span(id, p, request, name, t0, t1, Thread.currentThread.getName) }
    }
  }

  /** Id of the calling thread's innermost open span (-1 outside any). */
  def current: Int = open.get.headOption.getOrElse(-1)

  def count(name: String, value: Double): Unit =
    synchronized { counts += Count(current, name, value) }

  /** Durations (ms) of the spans named `name`, in completion order. */
  def ms(name: String): Seq[Double] = synchronized { spans.filter(_.name == name).map(_.ms).toSeq }

  def write(path: Path): Unit = synchronized {
    def q(s: String) = "\"" + s.replace("\\", "\\\\").replace("\"", "\\\"") + "\""
    val sb = new StringBuilder("{\"spans\":[\n")
    sb ++= spans.sortBy(_.startNs).map(s =>
      s"""{"id":${s.id},"parent":${s.parent},"request":${s.request},"name":${q(s.name)},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"thread":${q(s.thread)}}""").mkString(",\n")
    sb ++= "\n],\"counts\":[\n"
    sb ++= counts.map(c => s"""{"span":${c.span},"name":${q(c.name)},"value":${c.value}}""").mkString(",\n")
    sb ++= "\n]}\n"
    Files.createDirectories(path.toAbsolutePath.getParent)
    Files.write(path, sb.toString.getBytes(StandardCharsets.UTF_8))
  }
}
