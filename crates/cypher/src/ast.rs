//! Abstract syntax of the MATCH/WHERE/RETURN fragment.

/// Relationship direction in a pattern.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Direction {
    /// `-[..]->`
    Right,
    /// `<-[..]-`
    Left,
}

/// A node pattern `(var:label)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NodePattern {
    /// Binding variable, if named.
    pub var: Option<String>,
    /// Required label, if present.
    pub label: Option<String>,
}

/// A relationship pattern `-[var:label]->` / `<-[var:label]-`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelPattern {
    /// Binding variable, if named.
    pub var: Option<String>,
    /// Required edge label, if present.
    pub label: Option<String>,
    /// Arrow direction.
    pub direction: Direction,
}

/// One linear path pattern: `node (rel node)*`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PathPattern {
    /// The node patterns, one more than `rels`.
    pub nodes: Vec<NodePattern>,
    /// The relationship patterns between consecutive nodes.
    pub rels: Vec<RelPattern>,
}

/// Comparison operator in `WHERE`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
}

/// One `WHERE` conjunct: `var.prop <op> 'literal'`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Condition {
    /// Variable whose property is inspected.
    pub var: String,
    /// Property name.
    pub prop: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal to compare against.
    pub value: String,
}

/// A `RETURN` item: a bound variable or a property of one.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReturnItem {
    /// `var` — the node/edge identifier.
    Var(String),
    /// `var.prop` — a property value (empty string when absent).
    Prop(String, String),
}

/// A full query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    /// The comma-separated path patterns of the MATCH clause.
    pub patterns: Vec<PathPattern>,
    /// The WHERE conjuncts (empty when no WHERE clause).
    pub conditions: Vec<Condition>,
    /// The RETURN items (at least one).
    pub returns: Vec<ReturnItem>,
}

impl Query {
    /// Variables bound to nodes by the MATCH clause.
    pub fn node_vars(&self) -> Vec<&str> {
        let mut vars: Vec<&str> = Vec::new();
        for p in &self.patterns {
            for n in &p.nodes {
                if let Some(v) = &n.var {
                    if !vars.contains(&v.as_str()) {
                        vars.push(v);
                    }
                }
            }
        }
        vars
    }

    /// Variables bound to relationships by the MATCH clause.
    pub fn rel_vars(&self) -> Vec<&str> {
        let mut vars: Vec<&str> = Vec::new();
        for p in &self.patterns {
            for r in &p.rels {
                if let Some(v) = &r.var {
                    if !vars.contains(&v.as_str()) {
                        vars.push(v);
                    }
                }
            }
        }
        vars
    }

    /// All variables bound by the MATCH clause.
    pub fn bound_vars(&self) -> Vec<&str> {
        let mut vars: Vec<&str> = Vec::new();
        for p in &self.patterns {
            for n in &p.nodes {
                if let Some(v) = &n.var {
                    if !vars.contains(&v.as_str()) {
                        vars.push(v);
                    }
                }
            }
            for r in &p.rels {
                if let Some(v) = &r.var {
                    if !vars.contains(&v.as_str()) {
                        vars.push(v);
                    }
                }
            }
        }
        vars
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_vars_deduplicate_across_patterns() {
        let q = Query {
            patterns: vec![
                PathPattern {
                    nodes: vec![
                        NodePattern {
                            var: Some("a".into()),
                            label: None,
                        },
                        NodePattern {
                            var: Some("b".into()),
                            label: None,
                        },
                    ],
                    rels: vec![RelPattern {
                        var: Some("r".into()),
                        label: None,
                        direction: Direction::Right,
                    }],
                },
                PathPattern {
                    nodes: vec![NodePattern {
                        var: Some("a".into()),
                        label: None,
                    }],
                    rels: vec![],
                },
            ],
            conditions: vec![],
            returns: vec![ReturnItem::Var("a".into())],
        };
        assert_eq!(q.bound_vars(), vec!["a", "b", "r"]);
    }
}
