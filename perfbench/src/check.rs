//! Output checks applied to every answer, and recall against exact ground
//! truth.

use milvus_index::{distance, Metric, TopK, VectorSet};

/// One returned neighbour as the benchmark sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Entity id.
    pub id: i64,
    /// Distance as reported (smaller is closer).
    pub dist: f32,
}

/// What a correct answer must satisfy.
pub struct Expect<'a> {
    /// Requested top-k.
    pub k: usize,
    /// Acceptable hit counts: `min(k, live)` for each row count the
    /// answer may have seen.
    pub lens: &'a [usize],
    /// The rows: id `i` is row `i`.
    pub data: &'a VectorSet,
    /// Ids `>= visible` do not exist yet.
    pub visible: usize,
    /// The query vector.
    pub query: &'a [f32],
    /// A predicate every hit must satisfy (the attribute filter).
    pub filter: Option<&'a dyn Fn(i64) -> bool>,
}

/// Check one answer: the expected number of hits, sorted by distance,
/// unique in-range ids, distances that match the stored vectors, and the
/// filter.
pub fn check_answer(hits: &[Hit], e: &Expect) -> Result<(), String> {
    if !e.lens.contains(&hits.len()) {
        return Err(format!(
            "{} hits, expected one of {:?} (k={})",
            hits.len(),
            e.lens,
            e.k
        ));
    }
    let mut seen = std::collections::HashSet::with_capacity(hits.len());
    for (i, h) in hits.iter().enumerate() {
        if h.id < 0 || h.id as usize >= e.visible {
            return Err(format!("id {} outside 0..{}", h.id, e.visible));
        }
        if !seen.insert(h.id) {
            return Err(format!("duplicate id {}", h.id));
        }
        if i > 0 && hits[i - 1].dist > h.dist {
            return Err(format!(
                "unsorted at rank {i}: {} > {}",
                hits[i - 1].dist,
                h.dist
            ));
        }
        let exact = distance::distance(Metric::L2, e.query, e.data.get(h.id as usize));
        if (exact - h.dist).abs() > 1e-3 * exact.abs().max(1.0) {
            return Err(format!(
                "id {} reported at {} but lies at {exact}",
                h.id, h.dist
            ));
        }
        if let Some(f) = e.filter {
            if !f(h.id) {
                return Err(format!("id {} fails the filter", h.id));
            }
        }
    }
    Ok(())
}

/// `|answer ∩ truth| / |truth|` for one query.
pub fn recall(truth: &[i64], answer: &[i64]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    answer.iter().filter(|id| truth.contains(id)).count() as f64 / truth.len() as f64
}

/// Exact top-k ids of `query` among rows `0..visible` of `data`.
pub fn exact_topk(data: &VectorSet, visible: usize, query: &[f32], k: usize) -> Vec<i64> {
    let mut heap = TopK::new(k.max(1));
    for row in 0..visible {
        heap.push(
            row as i64,
            distance::distance(Metric::L2, query, data.get(row)),
        );
    }
    heap.into_sorted().into_iter().map(|n| n.id).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> VectorSet {
        let mut vs = VectorSet::new(2);
        for i in 0..6 {
            vs.push(&[i as f32, 0.0]);
        }
        vs
    }

    fn hits(ids: &[i64], q: &[f32], d: &VectorSet) -> Vec<Hit> {
        ids.iter()
            .map(|&id| Hit {
                id,
                dist: distance::distance(Metric::L2, q, d.get(id as usize)),
            })
            .collect()
    }

    #[test]
    fn recall_counts_overlap() {
        assert_eq!(recall(&[1, 2, 3, 4], &[4, 3, 9, 8]), 0.5);
        assert_eq!(recall(&[1, 2], &[1, 2]), 1.0);
        assert_eq!(recall(&[1, 2], &[]), 0.0);
        assert_eq!(recall(&[], &[5]), 1.0);
    }

    #[test]
    fn exact_topk_respects_the_visible_prefix() {
        let d = data();
        assert_eq!(exact_topk(&d, 6, &[4.2, 0.0], 3), vec![4, 5, 3]);
        assert_eq!(exact_topk(&d, 3, &[4.2, 0.0], 2), vec![2, 1]);
    }

    #[test]
    fn answers_are_checked() {
        let d = data();
        let q = [0.1f32, 0.0];
        let even = |id: i64| id % 2 == 0;
        let e = Expect {
            k: 3,
            lens: &[3],
            data: &d,
            visible: 5,
            query: &q,
            filter: None,
        };
        assert!(check_answer(&hits(&[0, 1, 2], &q, &d), &e).is_ok());
        assert!(check_answer(&hits(&[0, 1], &q, &d), &e)
            .unwrap_err()
            .contains("2 hits"));
        assert!(check_answer(&hits(&[1, 0, 2], &q, &d), &e)
            .unwrap_err()
            .contains("unsorted"));
        assert!(check_answer(&hits(&[0, 0, 2], &q, &d), &e)
            .unwrap_err()
            .contains("duplicate"));
        assert!(check_answer(&hits(&[0, 1, 5], &q, &d), &e)
            .unwrap_err()
            .contains("outside"));
        let mut wrong = hits(&[0, 1, 2], &q, &d);
        wrong[2].id = 3;
        wrong[2].dist = wrong[1].dist;
        assert!(check_answer(&wrong, &e).unwrap_err().contains("lies at"));
        let f = Expect {
            filter: Some(&even),
            ..e
        };
        assert!(check_answer(&hits(&[0, 2, 4], &q, &d), &f).is_ok());
        assert!(check_answer(&hits(&[0, 1, 2], &q, &d), &f)
            .unwrap_err()
            .contains("filter"));
    }
}
