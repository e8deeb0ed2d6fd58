package repro.core.phase2

import scala.collection.mutable

/** Algorithm 3: largest-first greedy list coloring of an explicit conflict
  * hypergraph, the reference [[ImplicitGraph.colorLF]] is tested against.
  *
  * Colors are foreign-key values. A color is forbidden for vertex `v` when
  * some hyperedge containing `v` has all its *other* vertices already
  * assigned that same color (then coloring `v` alike would make the edge
  * monochromatic, i.e. violate the DC). Vertices whose whole palette is
  * forbidden are skipped; with one fresh color per vertex appended above
  * the palette, as Phase II does, they take fresh colors in the same pass
  * (Algorithm 4 lines 11–14).
  */
object ListColoring {

  /** @param nVertices vertices are `0 until nVertices`
    * @param edges     sorted, deduplicated hyperedges (size ≥ 2)
    * @param initial   colors fixed by a previous pass (not recolored)
    * @param palette   candidate colors, tried in ascending order
    * @return (full color map including `initial`, skipped vertices in the
    *         order they were considered)
    */
  def colorLF(nVertices: Int, edges: IndexedSeq[Vector[Int]],
              initial: Map[Int, Long],
              palette: IndexedSeq[Long]): (Map[Int, Long], Vector[Int]) = {
    val incident = Array.fill(nVertices)(mutable.ArrayBuffer.empty[Int])
    edges.indices.foreach(e => edges(e).foreach(v => incident(v) += e))

    val colors = mutable.Map.empty[Int, Long] ++ initial
    val skipped = mutable.ArrayBuffer.empty[Int]
    val sortedPalette = palette.sorted

    val order = (0 until nVertices)
      .filterNot(initial.contains)
      .sortBy(v => (-incident(v).size, v)) // non-increasing degree, stable

    for (v <- order) {
      val forbidden = mutable.Set.empty[Long]
      incident(v).foreach { e =>
        val others = edges(e).filter(_ != v)
        val otherColors = others.flatMap(colors.get)
        if (otherColors.size == others.size && otherColors.distinct.size == 1) {
          forbidden += otherColors.head
        }
      }
      sortedPalette.find(c => !forbidden(c)) match {
        case Some(c) => colors(v) = c
        case None    => skipped += v
      }
    }
    (colors.toMap, skipped.toVector)
  }
}
