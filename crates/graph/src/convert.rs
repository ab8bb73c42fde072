//! Conversion between interaction graphs and interaction expressions.
//!
//! `to_expr` realizes the paper's reading of a graph as a notation for an
//! expression: activities become start/termination action pairs (footnote 6),
//! the branching operators map to the corresponding expression operators, and
//! template calls are expanded against a [`TemplateRegistry`].  `from_expr`
//! reconstructs a graph from an expression (atoms become action nodes;
//! adjacent `X_start`/`X_end` pairs are folded back into activities).

use crate::model::{GraphNode, InteractionGraph};
use ix_core::{builder, Action, CoreError, CoreResult, Expr, ExprKind, TemplateRegistry};

/// Converts a graph node to the interaction expression it denotes.
pub fn to_expr(node: &GraphNode, registry: &TemplateRegistry) -> CoreResult<Expr> {
    Ok(match node {
        GraphNode::Activity { name, args } => builder::activity(name, args.clone()),
        GraphNode::Action { action } => Expr::atom(action.clone()),
        GraphNode::Empty => Expr::empty(),
        GraphNode::Sequence(xs) => builder::seq_all(convert_all(xs, registry)?),
        GraphNode::EitherOr(xs) => builder::or_all(convert_all(xs, registry)?),
        GraphNode::AsWellAs(xs) => builder::par_all(convert_all(xs, registry)?),
        GraphNode::Conjunction(xs) => builder::and_all(convert_all(xs, registry)?),
        GraphNode::Coupling(xs) => builder::sync_all(convert_all(xs, registry)?),
        GraphNode::Optional(b) => Expr::option(to_expr(b, registry)?),
        GraphNode::Repetition(b) => Expr::seq_iter(to_expr(b, registry)?),
        GraphNode::ArbitraryParallel(b) => Expr::par_iter(to_expr(b, registry)?),
        GraphNode::SomeValue { param, body } => Expr::some_q(*param, to_expr(body, registry)?),
        GraphNode::AllValues { param, body } => Expr::par_q(*param, to_expr(body, registry)?),
        GraphNode::EveryValue { param, body } => Expr::all_q(*param, to_expr(body, registry)?),
        GraphNode::SyncValues { param, body } => Expr::sync_q(*param, to_expr(body, registry)?),
        GraphNode::Multiplier { count, body } => Expr::mult(*count, to_expr(body, registry)?),
        GraphNode::TemplateCall { name, args } => {
            let operands = convert_all(args, registry)?;
            registry.expand(*name, &operands)?
        }
    })
}

fn convert_all(nodes: &[GraphNode], registry: &TemplateRegistry) -> CoreResult<Vec<Expr>> {
    nodes.iter().map(|n| to_expr(n, registry)).collect()
}

/// Converts a whole graph to its expression.
pub fn graph_to_expr(graph: &InteractionGraph, registry: &TemplateRegistry) -> CoreResult<Expr> {
    to_expr(&graph.root, registry)
}

/// Reconstructs a graph from an expression.  The reconstruction is exact for
/// every operator; sequences of `X_start` / `X_end` atoms produced by
/// [`builder::activity`] are folded back into activity rectangles.
pub fn from_expr(expr: &Expr) -> GraphNode {
    // Recognize the activity encoding first: X_start(args) - X_end(args).
    if let ExprKind::Seq(l, r) = expr.kind() {
        if let (ExprKind::Atom(a), ExprKind::Atom(b)) = (l.kind(), r.kind()) {
            if let Some(name) = activity_pair(a, b) {
                return GraphNode::Activity { name, args: a.args().to_vec() };
            }
        }
    }
    match expr.kind() {
        ExprKind::Empty | ExprKind::Hole(_) => GraphNode::Empty,
        ExprKind::Atom(a) => GraphNode::Action { action: a.clone() },
        ExprKind::Option(y) => GraphNode::Optional(Box::new(from_expr(y))),
        ExprKind::Seq(..) => GraphNode::Sequence(flatten_assoc(expr, &is_seq)),
        ExprKind::SeqIter(y) => GraphNode::Repetition(Box::new(from_expr(y))),
        ExprKind::Par(..) => GraphNode::AsWellAs(flatten_assoc(expr, &is_par)),
        ExprKind::ParIter(y) => GraphNode::ArbitraryParallel(Box::new(from_expr(y))),
        ExprKind::Or(..) => GraphNode::EitherOr(flatten_assoc(expr, &is_or)),
        ExprKind::And(..) => GraphNode::Conjunction(flatten_assoc(expr, &is_and)),
        ExprKind::Sync(..) => GraphNode::Coupling(flatten_assoc(expr, &is_sync)),
        ExprKind::SomeQ(p, y) => GraphNode::SomeValue { param: *p, body: Box::new(from_expr(y)) },
        ExprKind::ParQ(p, y) => GraphNode::AllValues { param: *p, body: Box::new(from_expr(y)) },
        ExprKind::SyncQ(p, y) => GraphNode::SyncValues { param: *p, body: Box::new(from_expr(y)) },
        ExprKind::AllQ(p, y) => GraphNode::EveryValue { param: *p, body: Box::new(from_expr(y)) },
        ExprKind::Mult(n, y) => GraphNode::Multiplier { count: *n, body: Box::new(from_expr(y)) },
    }
}

/// Detects the `X_start`/`X_end` activity encoding.
fn activity_pair(start: &Action, end: &Action) -> Option<String> {
    let s = start.name().to_string();
    let e = end.name().to_string();
    let base = s.strip_suffix("_start")?;
    if e == format!("{base}_end") && start.args() == end.args() {
        Some(base.to_string())
    } else {
        None
    }
}

fn is_seq(e: &Expr) -> Option<(&Expr, &Expr)> {
    match e.kind() {
        ExprKind::Seq(l, r) => {
            // An activity-encoded pair is a leaf of the graph notation, not a
            // sequence to flatten.
            if let (ExprKind::Atom(a), ExprKind::Atom(b)) = (l.kind(), r.kind()) {
                if activity_pair(a, b).is_some() {
                    return None;
                }
            }
            Some((l, r))
        }
        _ => None,
    }
}
fn is_par(e: &Expr) -> Option<(&Expr, &Expr)> {
    match e.kind() {
        ExprKind::Par(l, r) => Some((l, r)),
        _ => None,
    }
}
fn is_or(e: &Expr) -> Option<(&Expr, &Expr)> {
    match e.kind() {
        ExprKind::Or(l, r) => Some((l, r)),
        _ => None,
    }
}
fn is_and(e: &Expr) -> Option<(&Expr, &Expr)> {
    match e.kind() {
        ExprKind::And(l, r) => Some((l, r)),
        _ => None,
    }
}
fn is_sync(e: &Expr) -> Option<(&Expr, &Expr)> {
    match e.kind() {
        ExprKind::Sync(l, r) => Some((l, r)),
        _ => None,
    }
}

/// Flattens a left-nested chain of one associative binary operator into the
/// n-ary branch list interaction graphs use.
fn flatten_assoc<'a>(
    expr: &'a Expr,
    matcher: &impl Fn(&'a Expr) -> Option<(&'a Expr, &'a Expr)>,
) -> Vec<GraphNode> {
    let mut parts = Vec::new();
    fn collect<'a>(
        e: &'a Expr,
        matcher: &impl Fn(&'a Expr) -> Option<(&'a Expr, &'a Expr)>,
        out: &mut Vec<&'a Expr>,
    ) {
        match matcher(e) {
            Some((l, r)) => {
                collect(l, matcher, out);
                collect(r, matcher, out);
            }
            None => out.push(e),
        }
    }
    let mut leaves = Vec::new();
    collect(expr, matcher, &mut leaves);
    for leaf in leaves {
        parts.push(from_expr(leaf));
    }
    parts
}

/// Round-trip helper: the expression denoted by the graph reconstructed from
/// `expr` (used by tests; exposed because the syntax-driven editor mentioned
/// in Sec. 8 needs exactly this normalization).
pub fn normalize_via_graph(expr: &Expr) -> CoreResult<Expr> {
    let graph = from_expr(expr);
    to_expr(&graph, &TemplateRegistry::new())
}

/// Converts a textual expression directly into a graph (convenience for
/// callers that start from source text).
pub fn parse_to_graph(src: &str, registry: &TemplateRegistry) -> CoreResult<InteractionGraph> {
    let expr = ix_core::parse_with(src, registry)?;
    Ok(InteractionGraph::new(src, from_expr(&expr)))
}

/// Ensures a graph does not contain unexpanded template calls (those cannot
/// be converted without a registry entry).
pub fn check_templates_expandable(
    graph: &InteractionGraph,
    registry: &TemplateRegistry,
) -> CoreResult<()> {
    let mut missing: Option<String> = None;
    graph.root.visit(&mut |n| {
        if let GraphNode::TemplateCall { name, .. } = n {
            if !registry.contains(*name) && missing.is_none() {
                missing = Some(name.to_string());
            }
        }
    });
    match missing {
        Some(template) => Err(CoreError::UnknownTemplate { template }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ix_core::builder::pt;
    use ix_core::{parse, Symbol};

    #[test]
    fn activities_map_to_start_end_pairs() {
        let g = GraphNode::activity("call_patient", [pt("p")]);
        let e = to_expr(&g, &TemplateRegistry::new()).unwrap();
        let atoms = e.atoms();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].name().to_string(), "call_patient_start");
        assert_eq!(atoms[1].name().to_string(), "call_patient_end");
        // ...and are folded back on reconstruction.
        let back = from_expr(&e);
        assert_eq!(back, g);
    }

    #[test]
    fn branching_operators_map_to_expression_operators() {
        let reg = TemplateRegistry::new();
        let g = GraphNode::EitherOr(vec![
            GraphNode::Action { action: Action::nullary("y") },
            GraphNode::Action { action: Action::nullary("z") },
        ]);
        assert_eq!(to_expr(&g, &reg).unwrap(), parse("y + z").unwrap());
        let g = GraphNode::AsWellAs(vec![
            GraphNode::Action { action: Action::nullary("y") },
            GraphNode::Action { action: Action::nullary("z") },
        ]);
        assert_eq!(to_expr(&g, &reg).unwrap(), parse("y | z").unwrap());
        let g = GraphNode::Coupling(vec![
            GraphNode::Action { action: Action::nullary("y") },
            GraphNode::Action { action: Action::nullary("z") },
        ]);
        assert_eq!(to_expr(&g, &reg).unwrap(), parse("y @ z").unwrap());
    }

    #[test]
    fn template_calls_are_expanded() {
        let reg = TemplateRegistry::with_standard_operators();
        let g = GraphNode::TemplateCall {
            name: Symbol::new("mutex"),
            args: vec![
                GraphNode::Action { action: Action::nullary("x") },
                GraphNode::Action { action: Action::nullary("y") },
                GraphNode::Action { action: Action::nullary("z") },
            ],
        };
        assert_eq!(to_expr(&g, &reg).unwrap(), parse("(x + y + z)*").unwrap());
        // Without the registry the conversion fails.
        assert!(to_expr(&g, &TemplateRegistry::new()).is_err());
    }

    #[test]
    fn expression_round_trips_through_the_graph_notation() {
        let reg = TemplateRegistry::new();
        let sources = [
            "a - b - c",
            "(a + b) | c*",
            "all p { (some x { call(p, x) - perform(p, x) })* }",
            "mult 3 { a - b } @ (c + d)#",
            "a? & empty",
        ];
        for src in sources {
            let e = parse(src).unwrap();
            let g = from_expr(&e);
            let e2 = to_expr(&g, &reg).unwrap();
            assert!(
                ix_semantics::equivalent(
                    &e,
                    &e2,
                    &ix_semantics::Universe::new([ix_core::Value::int(1)]).with_fresh(1),
                    3
                ),
                "round trip changed the language of {src}"
            );
        }
    }

    #[test]
    fn associative_chains_flatten_into_branch_lists() {
        let e = parse("a + b + c + d").unwrap();
        match from_expr(&e) {
            GraphNode::EitherOr(branches) => assert_eq!(branches.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parse_to_graph_and_template_checks() {
        let reg = TemplateRegistry::with_standard_operators();
        let g = parse_to_graph("mutex!(a, b, c) @ d*", &reg).unwrap();
        assert!(g.size() > 3);
        assert!(check_templates_expandable(&g, &reg).is_ok());
        let unexpanded = InteractionGraph::new(
            "bad",
            GraphNode::TemplateCall { name: Symbol::new("nope"), args: vec![] },
        );
        assert!(check_templates_expandable(&unexpanded, &reg).is_err());
    }

    #[test]
    fn normalize_via_graph_preserves_structure_for_plain_operators() {
        let e = parse("(a - b)* + c#").unwrap();
        let n = normalize_via_graph(&e).unwrap();
        assert_eq!(e, n);
    }
}
