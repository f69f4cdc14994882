//! Road-network graphs.

use igern_geom::{Aabb, Point};

/// Index of a network node.
pub type NodeId = usize;
/// Index of a network edge.
pub type EdgeId = usize;

/// Road class, determining travel speed (Brinkhoff's generator assigns
/// per-class maximum speeds; we keep three classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoadClass {
    /// Fast arterial roads.
    Highway,
    /// Ordinary streets.
    Main,
    /// Slow residential streets.
    Side,
}

impl RoadClass {
    /// Travel speed in space units per tick.
    pub fn speed(self) -> f64 {
        match self {
            RoadClass::Highway => 8.0,
            RoadClass::Main => 4.0,
            RoadClass::Side => 2.0,
        }
    }
}

/// An undirected road segment between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    pub a: NodeId,
    pub b: NodeId,
    pub class: RoadClass,
    /// Euclidean length (cached).
    pub len: f64,
}

impl Edge {
    /// Travel time of the edge at its class speed.
    #[inline]
    pub fn travel_time(&self) -> f64 {
        self.len / self.class.speed()
    }

    /// The endpoint opposite to `n`.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            debug_assert_eq!(n, self.b);
            self.a
        }
    }
}

/// An undirected road network embedded in the plane.
#[derive(Debug, Clone)]
pub struct RoadNetwork {
    nodes: Vec<Point>,
    edges: Vec<Edge>,
    /// Adjacency: for each node, the ids of its incident edges.
    adjacency: Vec<Vec<EdgeId>>,
    space: Aabb,
}

impl RoadNetwork {
    /// Build a network from node positions and `(a, b, class)` segments.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or an empty node set.
    pub fn new(nodes: Vec<Point>, segments: &[(NodeId, NodeId, RoadClass)], space: Aabb) -> Self {
        assert!(!nodes.is_empty(), "network must have nodes");
        let mut adjacency = vec![Vec::new(); nodes.len()];
        let mut edges = Vec::with_capacity(segments.len());
        for &(a, b, class) in segments {
            assert!(a < nodes.len() && b < nodes.len(), "endpoint out of range");
            assert_ne!(a, b, "self-loop");
            let id = edges.len();
            edges.push(Edge {
                a,
                b,
                class,
                len: nodes[a].dist(nodes[b]),
            });
            adjacency[a].push(id);
            adjacency[b].push(id);
        }
        RoadNetwork {
            nodes,
            edges,
            adjacency,
            space,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Position of a node.
    #[inline]
    pub fn node(&self, n: NodeId) -> Point {
        self.nodes[n]
    }

    /// An edge by id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e]
    }

    /// Edge ids incident to `n`.
    #[inline]
    pub fn incident(&self, n: NodeId) -> &[EdgeId] {
        &self.adjacency[n]
    }

    /// The data space the network is embedded in.
    #[inline]
    pub fn space(&self) -> &Aabb {
        &self.space
    }

    /// The edge connecting `a` and `b`, if any (linear scan of `a`'s
    /// incident list — node degrees are tiny in road networks).
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<&Edge> {
        self.edge_id_between(a, b).map(|e| &self.edges[e])
    }

    /// The id of the edge [`RoadNetwork::edge_between`] returns.
    pub fn edge_id_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.adjacency[a]
            .iter()
            .copied()
            .find(|&e| self.edges[e].other(a) == b)
    }

    /// Whether the network is connected (BFS from node 0).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(n) = stack.pop() {
            for &e in &self.adjacency[n] {
                let m = self.edges[e].other(n);
                if !seen[m] {
                    seen[m] = true;
                    count += 1;
                    stack.push(m);
                }
            }
        }
        count == self.nodes.len()
    }

    /// Total length of all edges.
    pub fn total_length(&self) -> f64 {
        self.edges.iter().map(|e| e.len).sum()
    }

    /// Serialize to a simple line-oriented text format (full round-trip
    /// precision):
    ///
    /// ```text
    /// space <min_x> <min_y> <max_x> <max_y>
    /// nodes <n>
    /// <x> <y>
    /// edges <m>
    /// <a> <b> <H|M|S>
    /// ```
    pub fn save<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(
            w,
            "space {:?} {:?} {:?} {:?}",
            self.space.min.x, self.space.min.y, self.space.max.x, self.space.max.y
        )?;
        writeln!(w, "nodes {}", self.nodes.len())?;
        for p in &self.nodes {
            writeln!(w, "{:?} {:?}", p.x, p.y)?;
        }
        writeln!(w, "edges {}", self.edges.len())?;
        for e in &self.edges {
            let class = match e.class {
                RoadClass::Highway => 'H',
                RoadClass::Main => 'M',
                RoadClass::Side => 'S',
            };
            writeln!(w, "{} {} {class}", e.a, e.b)?;
        }
        Ok(())
    }

    /// Parse a network written by [`RoadNetwork::save`].
    ///
    /// Parsing is skip-and-count: each section's body is scanned to its
    /// real extent before being compared with the declared header count,
    /// so a truncated or padded file reports a precise
    /// [`NetworkLoadError::CountMismatch`] instead of misparsing the next
    /// section's header as body data. Never panics on malformed input.
    pub fn load<R: std::io::BufRead>(r: R) -> Result<Self, NetworkLoadError> {
        use NetworkLoadError as E;
        let lines: Vec<String> = r
            .lines()
            .collect::<std::io::Result<_>>()
            .map_err(|e| E::Io(e.kind()))?;
        // Trailing blank lines are save artifacts, not body rows.
        let mut end = lines.len();
        while end > 0 && lines[end - 1].trim().is_empty() {
            end -= 1;
        }
        let lines = &lines[..end];
        let parts: Vec<&str> = lines
            .first()
            .map_or_else(Vec::new, |l| l.split_whitespace().collect());
        if parts.len() != 5 || parts[0] != "space" {
            return Err(E::MissingHeader("space"));
        }
        let coord = |s: &str, line: usize| {
            s.parse::<f64>().map_err(|_| E::BadField {
                line,
                what: "coordinate",
            })
        };
        let space = Aabb::from_coords(
            coord(parts[1], 1)?,
            coord(parts[2], 1)?,
            coord(parts[3], 1)?,
            coord(parts[4], 1)?,
        );
        let count_header = |idx: usize, name: &'static str| -> Result<usize, E> {
            lines
                .get(idx)
                .and_then(|l| l.strip_prefix(name))
                .and_then(|l| l.strip_prefix(' '))
                .and_then(|v| v.trim().parse().ok())
                .ok_or(E::MissingHeader(name))
        };
        let n = count_header(1, "nodes")?;
        if n == 0 {
            return Err(E::EmptyNetwork);
        }
        // Skip-and-count: the node body runs until the `edges` header.
        let edges_at = lines
            .iter()
            .position(|l| l.starts_with("edges ") || l.trim() == "edges");
        let found_nodes = edges_at.unwrap_or(lines.len()).saturating_sub(2);
        if found_nodes != n {
            return Err(E::CountMismatch {
                section: "nodes",
                declared: n,
                found: found_nodes,
            });
        }
        let mut nodes = Vec::with_capacity(n);
        for (i, line) in lines[2..2 + n].iter().enumerate() {
            let lineno = 3 + i;
            let mut it = line.split_whitespace();
            let mut field = || {
                it.next().ok_or(E::BadField {
                    line: lineno,
                    what: "coordinate",
                })
            };
            let x = coord(field()?, lineno)?;
            let y = coord(field()?, lineno)?;
            nodes.push(Point::new(x, y));
        }
        let m = count_header(2 + n, "edges")?;
        let found_edges = lines.len() - (3 + n);
        if found_edges != m {
            return Err(E::CountMismatch {
                section: "edges",
                declared: m,
                found: found_edges,
            });
        }
        let mut segments = Vec::with_capacity(m);
        for (i, line) in lines[3 + n..].iter().enumerate() {
            let lineno = 4 + n + i;
            let mut it = line.split_whitespace();
            let mut endpoint = || -> Result<usize, E> {
                it.next().and_then(|v| v.parse().ok()).ok_or(E::BadField {
                    line: lineno,
                    what: "edge endpoint",
                })
            };
            let a = endpoint()?;
            let b = endpoint()?;
            let class = match it.next() {
                Some("H") => RoadClass::Highway,
                Some("M") => RoadClass::Main,
                Some("S") => RoadClass::Side,
                _ => {
                    return Err(E::BadField {
                        line: lineno,
                        what: "road class",
                    })
                }
            };
            if a >= n || b >= n || a == b {
                return Err(E::BadEdge { line: lineno });
            }
            segments.push((a, b, class));
        }
        Ok(RoadNetwork::new(nodes, &segments, space))
    }
}

/// Why parsing a saved road network failed.
///
/// Mirrors the WAL's counted-damage discipline: every malformed input maps
/// to a specific, comparable variant rather than a panic or a stringly
/// `io::Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkLoadError {
    /// Reading the underlying stream failed.
    Io(std::io::ErrorKind),
    /// A required section header (`space`, `nodes`, `edges`) is missing
    /// or malformed.
    MissingHeader(&'static str),
    /// A field on the given 1-based line failed to parse.
    BadField { line: usize, what: &'static str },
    /// A section header declared one row count but the body held another
    /// (truncated or padded file).
    CountMismatch {
        section: &'static str,
        declared: usize,
        found: usize,
    },
    /// An edge row referenced a node out of range or was a self-loop.
    BadEdge { line: usize },
    /// The file declared zero nodes; a network must be non-empty.
    EmptyNetwork,
}

impl std::fmt::Display for NetworkLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkLoadError::Io(kind) => write!(f, "io error reading network: {kind:?}"),
            NetworkLoadError::MissingHeader(name) => {
                write!(f, "missing or malformed `{name}` header")
            }
            NetworkLoadError::BadField { line, what } => {
                write!(f, "bad {what} on line {line}")
            }
            NetworkLoadError::CountMismatch {
                section,
                declared,
                found,
            } => write!(
                f,
                "{section} header declares {declared} rows but body has {found}"
            ),
            NetworkLoadError::BadEdge { line } => {
                write!(f, "edge on line {line} is out of range or a self-loop")
            }
            NetworkLoadError::EmptyNetwork => write!(f, "network declares zero nodes"),
        }
    }
}

impl std::error::Error for NetworkLoadError {}

impl From<NetworkLoadError> for std::io::Error {
    fn from(e: NetworkLoadError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2×2 square with one diagonal.
    fn square() -> RoadNetwork {
        let nodes = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let segs = [
            (0, 1, RoadClass::Main),
            (1, 2, RoadClass::Main),
            (2, 3, RoadClass::Side),
            (3, 0, RoadClass::Side),
            (0, 2, RoadClass::Highway),
        ];
        RoadNetwork::new(nodes, &segs, Aabb::unit())
    }

    #[test]
    fn construction_and_lengths() {
        let n = square();
        assert_eq!(n.num_nodes(), 4);
        assert_eq!(n.num_edges(), 5);
        assert!((n.edge(0).len - 1.0).abs() < 1e-12);
        assert!((n.edge(4).len - 2f64.sqrt()).abs() < 1e-12);
        assert!((n.total_length() - (4.0 + 2f64.sqrt())).abs() < 1e-12);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let n = square();
        for e in 0..n.num_edges() {
            let edge = n.edge(e);
            assert!(n.incident(edge.a).contains(&e));
            assert!(n.incident(edge.b).contains(&e));
            assert_eq!(edge.other(edge.a), edge.b);
            assert_eq!(edge.other(edge.b), edge.a);
        }
    }

    #[test]
    fn connectivity() {
        let n = square();
        assert!(n.is_connected());
        // Two disconnected nodes.
        let m = RoadNetwork::new(
            vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(5.0, 5.0),
            ],
            &[(0, 1, RoadClass::Main)],
            Aabb::from_coords(0.0, 0.0, 10.0, 10.0),
        );
        assert!(!m.is_connected());
    }

    #[test]
    fn class_speeds_are_ordered() {
        assert!(RoadClass::Highway.speed() > RoadClass::Main.speed());
        assert!(RoadClass::Main.speed() > RoadClass::Side.speed());
    }

    #[test]
    fn travel_time_scales_with_class() {
        let n = square();
        // Edge 0 (Main, len 1) vs edge 2 (Side, len 1).
        assert!(n.edge(0).travel_time() < n.edge(2).travel_time());
    }

    #[test]
    fn save_load_roundtrip() {
        let n = square();
        let mut buf = Vec::new();
        n.save(&mut buf).unwrap();
        let m = RoadNetwork::load(std::io::BufReader::new(buf.as_slice())).unwrap();
        assert_eq!(m.num_nodes(), n.num_nodes());
        assert_eq!(m.num_edges(), n.num_edges());
        for i in 0..n.num_nodes() {
            assert_eq!(m.node(i), n.node(i));
        }
        for e in 0..n.num_edges() {
            assert_eq!(m.edge(e).class, n.edge(e).class);
            assert_eq!(m.edge(e).len, n.edge(e).len);
        }
    }

    #[test]
    fn load_rejects_garbage() {
        for c in [
            "",
            "space 0 0 1 1
nodes 2
0 0",
            "space 0 0 1 1
nodes 2
0 0
1 0
edges 1
0 5 M",
            "space 0 0 1 1
nodes 2
0 0
1 0
edges 1
0 1 X",
            "space 0 0 1 1
nodes 2
0 0
1 0
edges 1
0 0 M",
        ] {
            assert!(
                RoadNetwork::load(std::io::BufReader::new(c.as_bytes())).is_err(),
                "should reject {c:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loops() {
        RoadNetwork::new(
            vec![Point::new(0.0, 0.0)],
            &[(0, 0, RoadClass::Main)],
            Aabb::unit(),
        );
    }
}
