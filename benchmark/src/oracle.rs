//! Answer checks against the query definitions, by O(n) scan.
//!
//! The definitions are the ones `igern_core::naive` transcribes (strict
//! `<` for blocking, the query object neither answers nor blocks), with
//! the same argument orientation — query first for query distances,
//! candidate first for blocking distances — so network distances compare
//! the very floats the monitors compared. The scans run over the
//! benchmark's own mirror of the positions it generated, never over the
//! program's store.
//!
//! A full oracle is quadratic; at 100k objects a check instead verifies,
//! for each sampled query, every answer member and a handful of
//! non-members: the nearest non-members of the anchor (where a missed
//! answer would sit) and seeded random ones.

use crate::inputs::QuerySpec;
use crate::stats::Rng;
use crate::sut::{Algorithm, ObjectId, ObjectKind, Point};

/// Queries sampled per check.
pub const SAMPLED_QUERIES: usize = 32;
/// Non-members verified per sampled query: this many nearest, and this
/// many random (32 × 6 ≈ 200 per check).
const NEAREST_NON_MEMBERS: usize = 3;
const RANDOM_NON_MEMBERS: usize = 3;

/// Attempt/failure counts of one kind of operation.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// First few failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(note());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// What a query's definition says about one object.
enum Verdict {
    Member,
    NonMember,
    /// A distance tie at the k-th neighbour: either is right.
    Either,
}

/// Classify object `o` for the query anchored at `q`. `dist(i, j)` is the
/// distance from object `i` to object `j` in the workload's metric.
fn classify<D: FnMut(usize, usize) -> f64>(
    dist: &mut D,
    kinds: &[ObjectKind],
    q: usize,
    algo: Algorithm,
    o: usize,
) -> Verdict {
    let n = kinds.len();
    if o == q {
        return Verdict::NonMember;
    }
    let (k, bichromatic) = match algo {
        Algorithm::IgernMono => (1, false),
        Algorithm::IgernMonoK(k) => (k, false),
        Algorithm::IgernBi => (1, true),
        Algorithm::IgernBiK(k) => (k, true),
        Algorithm::Knn(k) => {
            let d_o = dist(q, o);
            let (mut closer, mut tied) = (0, 0);
            for other in (0..n).filter(|&i| i != q && i != o) {
                let d = dist(q, other);
                closer += usize::from(d < d_o);
                tied += usize::from(d == d_o);
            }
            return if closer >= k {
                Verdict::NonMember
            } else if closer + tied < k {
                Verdict::Member
            } else {
                Verdict::Either
            };
        }
        other => panic!("no definition check for {other:?}"),
    };
    if bichromatic && kinds[o] != ObjectKind::B {
        return Verdict::NonMember;
    }
    let d_q = dist(q, o);
    let closer = (0..n)
        .filter(|&i| i != q && i != o && (!bichromatic || kinds[i] == ObjectKind::A))
        .filter(|&i| dist(o, i) < d_q)
        .count();
    if closer < k {
        Verdict::Member
    } else {
        Verdict::NonMember
    }
}

/// Check one query's `answer` (sorted by id): every member, the nearest
/// non-members and a few random ones.
pub fn check_query<D: FnMut(usize, usize) -> f64>(
    dist: &mut D,
    positions: &[Point],
    kinds: &[ObjectKind],
    (anchor, algo, _): QuerySpec,
    answer: &[ObjectId],
    rng: &mut Rng,
    tally: &mut Tally,
) {
    let q = anchor.index();
    let is_member = |o: usize| answer.binary_search(&ObjectId(o as u32)).is_ok();
    for m in answer {
        let verdict = classify(dist, kinds, q, algo, m.index());
        tally.record(!matches!(verdict, Verdict::NonMember), || {
            format!("{algo:?} at {anchor}: {m} reported but is not an answer")
        });
    }
    // Objects of the wrong colour are trivially non-members; spend the
    // scans on ones the definition could admit.
    let eligible =
        |o: usize| o != q && !is_member(o) && (!algo.is_bichromatic() || kinds[o] == ObjectKind::B);
    let mut nearest: Vec<(f64, usize)> = Vec::with_capacity(NEAREST_NON_MEMBERS + 1);
    for o in (0..positions.len()).filter(|&o| eligible(o)) {
        let d = positions[q].dist_sq(positions[o]);
        if nearest.len() < NEAREST_NON_MEMBERS || d < nearest[nearest.len() - 1].0 {
            let at = nearest.partition_point(|e| e.0 <= d);
            nearest.insert(at, (d, o));
            nearest.truncate(NEAREST_NON_MEMBERS);
        }
    }
    let mut probes: Vec<usize> = nearest.into_iter().map(|e| e.1).collect();
    for _ in 0..RANDOM_NON_MEMBERS * 4 {
        if probes.len() >= NEAREST_NON_MEMBERS + RANDOM_NON_MEMBERS {
            break;
        }
        let o = rng.below(positions.len());
        if eligible(o) && !probes.contains(&o) {
            probes.push(o);
        }
    }
    for o in probes {
        let verdict = classify(dist, kinds, q, algo, o);
        tally.record(!matches!(verdict, Verdict::Member), || {
            format!("{algo:?} at {anchor}: object {o} is an answer but was not reported")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::{naive, DistanceMode};

    fn world(n: usize, seed: u64) -> (Vec<Point>, Vec<ObjectKind>) {
        let mut rng = Rng::new(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.f64() * 100.0, rng.f64() * 100.0))
            .collect();
        // Sparse kind A, so bichromatic answers are not empty.
        let kinds = (0..n)
            .map(|i| {
                if i % 8 == 0 {
                    ObjectKind::A
                } else {
                    ObjectKind::B
                }
            })
            .collect();
        (pts, kinds)
    }

    fn run(algo: Algorithm, answer: &[ObjectId], pts: &[Point], kinds: &[ObjectKind]) -> Tally {
        let mut tally = Tally::default();
        let mut dist = |i: usize, j: usize| pts[i].dist_sq(pts[j]);
        check_query(
            &mut dist,
            pts,
            kinds,
            (ObjectId(0), algo, DistanceMode::Euclidean),
            answer,
            &mut Rng::new(1),
            &mut tally,
        );
        tally
    }

    #[test]
    fn agrees_with_the_naive_oracles_and_catches_both_error_kinds() {
        let (pts, kinds) = world(300, 5);
        let all: Vec<(ObjectId, Point)> = pts
            .iter()
            .enumerate()
            .map(|(i, &p)| (ObjectId(i as u32), p))
            .collect();
        let of_kind = |k: ObjectKind| -> Vec<(ObjectId, Point)> {
            all.iter()
                .copied()
                .filter(|(id, _)| kinds[id.index()] == k)
                .collect()
        };
        let (a, b) = (of_kind(ObjectKind::A), of_kind(ObjectKind::B));
        let q = Some(ObjectId(0));
        let cases = [
            (Algorithm::IgernMono, naive::mono_rnn(&all, pts[0], q)),
            (
                Algorithm::IgernMonoK(4),
                naive::mono_rknn(&all, pts[0], q, 4),
            ),
            (Algorithm::IgernBi, naive::bi_rnn(&a, &b, pts[0], q)),
            (Algorithm::IgernBiK(4), naive::bi_rknn(&a, &b, pts[0], q, 4)),
        ];
        for (algo, truth) in cases {
            assert!(!truth.is_empty(), "{algo:?}: empty answer tests nothing");
            let ok = run(algo, &truth, &pts, &kinds);
            assert_eq!(ok.failed, 0, "{algo:?}: {:?}", ok.notes);
            assert!(ok.attempted as usize >= truth.len() + NEAREST_NON_MEMBERS);
            // Dropping the member nearest the anchor leaves it among the
            // nearest non-members: caught.
            let d = |o: &ObjectId| pts[0].dist_sq(pts[o.index()]);
            let nearest = *truth.iter().min_by(|x, y| d(x).total_cmp(&d(y))).unwrap();
            let dropped: Vec<ObjectId> = truth.iter().copied().filter(|&o| o != nearest).collect();
            let missing = run(algo, &dropped, &pts, &kinds);
            assert!(missing.failed >= 1, "{algo:?}: missed answer not caught");
            // A far-away extra member is caught too.
            let mut extra = truth.clone();
            let intruder = (1..300u32)
                .map(ObjectId)
                .filter(|o| !truth.contains(o))
                .max_by(|x, y| d(x).total_cmp(&d(y)))
                .unwrap();
            extra.push(intruder);
            extra.sort_unstable();
            assert!(run(algo, &extra, &pts, &kinds).failed >= 1, "{algo:?}");
        }
    }

    #[test]
    fn knn_members_are_the_k_closest() {
        let (pts, kinds) = world(200, 9);
        let mut by_dist: Vec<u32> = (1..200).collect();
        by_dist.sort_by(|&x, &y| {
            pts[0]
                .dist_sq(pts[x as usize])
                .total_cmp(&pts[0].dist_sq(pts[y as usize]))
        });
        let mut truth: Vec<ObjectId> = by_dist[..8].iter().map(|&i| ObjectId(i)).collect();
        truth.sort_unstable();
        assert_eq!(run(Algorithm::Knn(8), &truth, &pts, &kinds).failed, 0);
        let mut wrong = truth.clone();
        wrong.retain(|&o| o != ObjectId(by_dist[0]));
        assert!(run(Algorithm::Knn(8), &wrong, &pts, &kinds).failed >= 1);
    }
}
