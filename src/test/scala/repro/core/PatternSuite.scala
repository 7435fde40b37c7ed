package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** Pattern algebra and Algorithm 2 (Apriori candidate generation).
  * Property-style tests use a seeded Random so runs are deterministic.
  */
class PatternSuite extends AnyFunSuite {

  test("apply canonicalises: sorts and dedups") {
    assert(Pattern(Seq(3, 1, 2)) == Vector(1, 2, 3))
    assert(Pattern(Seq(5, 5, 1)) == Vector(1, 5))
    assert(Pattern(Nil) == Vector.empty)
  }

  test("key renders sorted items; empty pattern is ∅") {
    assert(Pattern.key(Vector(1, 2, 3)) == "1|2|3")
    assert(Pattern.key(Vector.empty) == "∅")
  }

  test("isSubPattern: reflexive") {
    assert(Pattern.isSubPattern(Vector(1, 3), Vector(1, 3)))
  }

  test("isSubPattern: empty pattern is sub-pattern of everything") {
    assert(Pattern.isSubPattern(Vector.empty, Vector(7)))
    assert(Pattern.isSubPattern(Vector.empty, Vector.empty))
  }

  test("isSubPattern: positive and negative cases") {
    assert(Pattern.isSubPattern(Vector(2), Vector(1, 2, 3)))
    assert(Pattern.isSubPattern(Vector(1, 3), Vector(1, 2, 3)))
    assert(!Pattern.isSubPattern(Vector(1, 4), Vector(1, 2, 3)))
    assert(!Pattern.isSubPattern(Vector(1, 2, 3), Vector(1, 2)))
  }

  test("isSubPattern agrees with Set.subsetOf (100 random cases)") {
    val rnd = new Random(1)
    for (_ <- 0 until 100) {
      val a = Pattern(Vector.fill(rnd.nextInt(5))(rnd.nextInt(10)))
      val b = Pattern(Vector.fill(rnd.nextInt(6))(rnd.nextInt(10)))
      assert(Pattern.isSubPattern(a, b) == a.toSet.subsetOf(b.toSet), s"a=$a b=$b")
    }
  }

  test("subPatternsDropOne produces all |p| length-(|p|-1) sub-patterns") {
    val subs = Pattern.subPatternsDropOne(Vector(1, 2, 3))
    assert(subs.toSet == Set(Vector(2, 3), Vector(1, 3), Vector(1, 2)))
  }

  test("subPatternsDropOne of a singleton is the empty pattern") {
    assert(Pattern.subPatternsDropOne(Vector(5)) == Seq(Vector.empty))
  }

  test("aprioriJoin on singletons forms all pairs") {
    val cands = Pattern.aprioriJoin(Seq(Vector(1), Vector(2), Vector(3)))
    assert(cands.map(_._1).toSet == Set(Vector(1, 2), Vector(1, 3), Vector(2, 3)))
  }

  test("aprioriJoin generates each candidate exactly once") {
    val parents = Seq(Vector(1, 2), Vector(1, 3), Vector(2, 3), Vector(1, 4), Vector(3, 4))
    val cands = Pattern.aprioriJoin(parents).map(_._1)
    assert(cands.distinct == cands)
  }

  test("aprioriJoin keeps only candidates with all sub-patterns qualified") {
    // {1,2},{1,3},{2,3} -> {1,2,3} qualifies; {1,4},{1,5} -> {1,4,5} lacks {4,5}.
    val parents = Seq(Vector(1, 2), Vector(1, 3), Vector(2, 3), Vector(1, 4), Vector(1, 5))
    val cands = Pattern.aprioriJoin(parents).map(_._1)
    assert(cands.contains(Vector(1, 2, 3)))
    assert(!cands.contains(Vector(1, 4, 5)))
  }

  test("aprioriJoin parent pair unions to the candidate") {
    val parents = Seq(Vector(1, 2), Vector(1, 3), Vector(2, 3))
    for ((cand, (pa, pb)) <- Pattern.aprioriJoin(parents)) {
      assert(Pattern(pa ++ pb) == cand)
      assert(pa != pb)
    }
  }

  test("aprioriJoin of empty input is empty") {
    assert(Pattern.aprioriJoin(Nil).isEmpty)
  }

  test("aprioriJoin matches brute force over random parent sets (60 cases)") {
    val rnd = new Random(2)
    for (_ <- 0 until 60) {
      val k = 1 + rnd.nextInt(3)
      val parents = Vector.fill(1 + rnd.nextInt(12))(
        Pattern(Vector.fill(k * 3)(rnd.nextInt(7)))).filter(_.length == k).distinct
      if (parents.nonEmpty) {
        val qual = parents.toSet
        val expected = parents.flatMap(_.iterator).distinct.sorted
          .combinations(k + 1)
          .map(_.toVector)
          .filter(c => Pattern.subPatternsDropOne(c).forall(qual.contains))
          .toSet
        val got = Pattern.aprioriJoin(parents).map(_._1).toSet
        assert(got == expected, s"parents=$parents")
      }
    }
  }

  test("aprioriJoin candidates are strictly longer than parents") {
    val parents = Seq(Vector(1, 2), Vector(1, 3), Vector(2, 3))
    assert(Pattern.aprioriJoin(parents).forall(_._1.length == 3))
  }
}
