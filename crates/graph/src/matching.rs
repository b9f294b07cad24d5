//! Matchings with O(1) mate queries and weight tracking.

use std::fmt;

use crate::edge::{Edge, Vertex};
use crate::error::GraphError;
use crate::graph::Graph;

/// A matching: a set of vertex-disjoint edges.
///
/// Each vertex stores its matched edge (if any), so mate and incident-weight
/// queries — `w(M(v))` in the paper's notation, with the paper's convention
/// that `w(M(v)) = 0` for unmatched `v` — are O(1). The total weight is
/// maintained incrementally.
///
/// # Example
///
/// ```
/// use wmatch_graph::{Edge, Matching};
///
/// let mut m = Matching::new(4);
/// m.insert(Edge::new(0, 1, 5)).unwrap();
/// m.insert(Edge::new(2, 3, 7)).unwrap();
/// assert_eq!(m.len(), 2);
/// assert_eq!(m.weight(), 12);
/// assert_eq!(m.mate(0), Some(1));
/// assert_eq!(m.incident_weight(2), 7);
/// assert!(m.insert(Edge::new(1, 2, 9)).is_err()); // 1 and 2 are matched
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matching {
    mate_edge: Vec<Option<Edge>>,
    len: usize,
    weight: i128,
}

impl Matching {
    /// Creates an empty matching over `n` vertices.
    pub fn new(n: usize) -> Self {
        Matching {
            mate_edge: vec![None; n],
            len: 0,
            weight: 0,
        }
    }

    /// Builds a matching from vertex-disjoint edges.
    ///
    /// # Errors
    ///
    /// Returns an error if the edges are not vertex-disjoint or out of range.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = Edge>) -> Result<Self, GraphError> {
        let mut m = Matching::new(n);
        for e in edges {
            m.insert(e)?;
        }
        Ok(m)
    }

    /// Number of vertices this matching is defined over.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.mate_edge.len()
    }

    /// Number of matched edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the matching is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total weight `w(M)`.
    #[inline]
    pub fn weight(&self) -> i128 {
        self.weight
    }

    /// The matched edge incident to `v`, if any.
    #[inline]
    pub fn matched_edge(&self, v: Vertex) -> Option<Edge> {
        self.mate_edge[v as usize]
    }

    /// The mate of `v`, if `v` is matched.
    #[inline]
    pub fn mate(&self, v: Vertex) -> Option<Vertex> {
        self.mate_edge[v as usize].map(|e| e.other(v))
    }

    /// Whether `v` is matched.
    #[inline]
    pub fn is_matched(&self, v: Vertex) -> bool {
        self.mate_edge[v as usize].is_some()
    }

    /// `w(M(v))` with the paper's convention: the weight of the matched edge
    /// incident to `v`, or 0 if `v` is unmatched (Section 3.2: unmatched
    /// vertices are thought of as matched to an artificial vertex by a
    /// zero-weight edge).
    #[inline]
    pub fn incident_weight(&self, v: Vertex) -> u64 {
        self.mate_edge[v as usize].map_or(0, |e| e.weight)
    }

    /// Whether the specific endpoint pair `{u,v}` is a matched edge.
    pub fn contains_pair(&self, u: Vertex, v: Vertex) -> bool {
        self.mate(u) == Some(v)
    }

    /// Whether `e`'s endpoint pair is matched (weight is ignored).
    pub fn contains(&self, e: &Edge) -> bool {
        self.contains_pair(e.u, e.v)
    }

    /// Inserts an edge.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EndpointMatched`] if either endpoint is already
    /// matched, or [`GraphError::VertexOutOfRange`] for bad endpoints.
    pub fn insert(&mut self, e: Edge) -> Result<(), GraphError> {
        let n = self.mate_edge.len();
        for x in [e.u, e.v] {
            if (x as usize) >= n {
                return Err(GraphError::VertexOutOfRange { vertex: x, n });
            }
        }
        for x in [e.u, e.v] {
            if self.mate_edge[x as usize].is_some() {
                return Err(GraphError::EndpointMatched { vertex: x });
            }
        }
        self.mate_edge[e.u as usize] = Some(e);
        self.mate_edge[e.v as usize] = Some(e);
        self.len += 1;
        self.weight += e.weight as i128;
        Ok(())
    }

    /// Removes the matched edge incident to `v` and returns it (or `None` if
    /// `v` was unmatched).
    pub fn remove_incident(&mut self, v: Vertex) -> Option<Edge> {
        let e = self.mate_edge[v as usize].take()?;
        self.mate_edge[e.other(v) as usize] = None;
        self.len -= 1;
        self.weight -= e.weight as i128;
        Some(e)
    }

    /// Removes the matched edge `{u,v}`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::EdgeNotMatched`] if `{u,v}` is not matched.
    pub fn remove_pair(&mut self, u: Vertex, v: Vertex) -> Result<Edge, GraphError> {
        if self.contains_pair(u, v) {
            Ok(self.remove_incident(u).expect("pair was matched"))
        } else {
            Err(GraphError::EdgeNotMatched { u, v })
        }
    }

    /// Empties the matching and re-sizes it to `n` vertices, keeping the
    /// backing allocation.
    pub fn reset(&mut self, n: usize) {
        self.mate_edge.clear();
        self.mate_edge.resize(n, None);
        self.len = 0;
        self.weight = 0;
    }

    /// Overwrites this matching with a copy of `other`, reusing the
    /// backing allocation (unlike `clone`, no fresh buffer is built —
    /// the dynamic engine keeps the matching a global restore started
    /// from this way at steady state).
    pub fn copy_from(&mut self, other: &Matching) {
        self.mate_edge.clear();
        self.mate_edge.extend_from_slice(&other.mate_edge);
        self.len = other.len;
        self.weight = other.weight;
    }

    /// Iterator over matched edges (each edge reported once).
    pub fn iter(&self) -> impl Iterator<Item = Edge> + '_ {
        self.mate_edge.iter().enumerate().filter_map(|(v, me)| {
            me.and_then(|e| {
                // report the edge only at its smaller endpoint
                if e.key().0 == v as Vertex {
                    Some(e)
                } else {
                    None
                }
            })
        })
    }

    /// Collects the matched edges into a vector.
    pub fn to_edges(&self) -> Vec<Edge> {
        self.iter().collect()
    }

    /// Vertices left unmatched.
    pub fn free_vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.mate_edge
            .iter()
            .enumerate()
            .filter(|(_, me)| me.is_none())
            .map(|(v, _)| v as Vertex)
    }

    /// Checks internal consistency (mate symmetry, length, weight) and that
    /// every matched edge exists in `g` with the same weight, if a graph is
    /// provided.
    pub fn validate(&self, g: Option<&Graph>) -> Result<(), GraphError> {
        let mut len = 0usize;
        let mut weight = 0i128;
        for (v, me) in self.mate_edge.iter().enumerate() {
            if let Some(e) = me {
                if !e.touches(v as Vertex) {
                    return Err(GraphError::InvalidAugmentation {
                        reason: format!("edge {e} stored at non-endpoint {v}"),
                    });
                }
                let w = e.other(v as Vertex);
                if self.mate_edge[w as usize] != Some(*e) {
                    return Err(GraphError::InvalidAugmentation {
                        reason: format!("asymmetric mate for {e}"),
                    });
                }
                if e.key().0 == v as Vertex {
                    len += 1;
                    weight += e.weight as i128;
                }
            }
        }
        if len != self.len || weight != self.weight {
            return Err(GraphError::InvalidAugmentation {
                reason: format!(
                    "cached len/weight ({}, {}) disagree with actual ({len}, {weight})",
                    self.len, self.weight
                ),
            });
        }
        if let Some(g) = g {
            for e in self.iter() {
                let ok = g
                    .incident(e.u)
                    .any(|(_, ge)| ge.same_endpoints(&e) && ge.weight == e.weight);
                if !ok {
                    return Err(GraphError::InvalidAugmentation {
                        reason: format!("matched edge {e} not present in graph"),
                    });
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for Matching {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matching(|M|={}, w={})", self.len, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut m = Matching::new(4);
        m.insert(Edge::new(0, 1, 5)).unwrap();
        m.insert(Edge::new(2, 3, 7)).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.weight(), 12);
        let e = m.remove_incident(3).unwrap();
        assert_eq!(e, Edge::new(2, 3, 7));
        assert_eq!(m.len(), 1);
        assert_eq!(m.weight(), 5);
        assert!(!m.is_matched(2));
        m.validate(None).unwrap();
    }

    #[test]
    fn insert_conflict_rejected() {
        let mut m = Matching::new(3);
        m.insert(Edge::new(0, 1, 1)).unwrap();
        assert_eq!(
            m.insert(Edge::new(1, 2, 1)),
            Err(GraphError::EndpointMatched { vertex: 1 })
        );
        // failed insert must not corrupt state
        assert_eq!(m.len(), 1);
        m.validate(None).unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let mut m = Matching::new(2);
        assert!(matches!(
            m.insert(Edge::new(0, 9, 1)),
            Err(GraphError::VertexOutOfRange { .. })
        ));
    }

    #[test]
    fn mate_and_incident_weight() {
        let mut m = Matching::new(4);
        m.insert(Edge::new(1, 3, 9)).unwrap();
        assert_eq!(m.mate(1), Some(3));
        assert_eq!(m.mate(3), Some(1));
        assert_eq!(m.mate(0), None);
        assert_eq!(m.incident_weight(1), 9);
        assert_eq!(m.incident_weight(0), 0); // paper's w(M(v))=0 convention
    }

    #[test]
    fn iter_reports_each_edge_once() {
        let mut m = Matching::new(6);
        m.insert(Edge::new(5, 4, 1)).unwrap();
        m.insert(Edge::new(0, 2, 2)).unwrap();
        let edges = m.to_edges();
        assert_eq!(edges.len(), 2);
        assert!(edges.iter().any(|e| e.key() == (4, 5)));
        assert!(edges.iter().any(|e| e.key() == (0, 2)));
    }

    #[test]
    fn free_vertices_listed() {
        let mut m = Matching::new(4);
        m.insert(Edge::new(1, 2, 1)).unwrap();
        let free: Vec<_> = m.free_vertices().collect();
        assert_eq!(free, vec![0, 3]);
    }

    #[test]
    fn remove_pair_errors_when_absent() {
        let mut m = Matching::new(4);
        m.insert(Edge::new(0, 1, 1)).unwrap();
        assert_eq!(
            m.remove_pair(0, 2),
            Err(GraphError::EdgeNotMatched { u: 0, v: 2 })
        );
        assert!(m.remove_pair(1, 0).is_ok());
    }

    #[test]
    fn validate_against_graph() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 5);
        let m = Matching::from_edges(3, [Edge::new(0, 1, 5)]).unwrap();
        m.validate(Some(&g)).unwrap();
        // wrong weight -> invalid
        let m2 = Matching::from_edges(3, [Edge::new(0, 1, 6)]).unwrap();
        assert!(m2.validate(Some(&g)).is_err());
        // absent edge -> invalid
        let m3 = Matching::from_edges(3, [Edge::new(1, 2, 5)]).unwrap();
        assert!(m3.validate(Some(&g)).is_err());
    }

    #[test]
    fn reset_and_copy_from_reuse_state() {
        let mut m = Matching::new(4);
        m.insert(Edge::new(0, 1, 5)).unwrap();
        m.reset(2);
        assert_eq!(m.vertex_count(), 2);
        assert!(m.is_empty());
        assert_eq!(m.weight(), 0);
        m.insert(Edge::new(0, 1, 3)).unwrap();
        m.validate(None).unwrap();

        let mut src = Matching::new(3);
        src.insert(Edge::new(1, 2, 9)).unwrap();
        m.copy_from(&src);
        assert_eq!(m, src);
        m.validate(None).unwrap();
    }

    #[test]
    fn from_edges_rejects_overlap() {
        assert!(Matching::from_edges(3, [Edge::new(0, 1, 1), Edge::new(1, 2, 1)]).is_err());
    }
}
