//! Recursive-descent parser for the GFD text format.
//!
//! ```text
//! graph G {
//!   node a: place { name = "Bamburi", pop = 100 }
//!   node b: place
//!   edge a -locateIn-> b
//! }
//!
//! gfd phi1 {
//!   pattern {
//!     node x: place
//!     node y: place
//!     edge x -locateIn-> y
//!     edge y -partOf-> x
//!   }
//!   when { }            # premise X (omit or leave empty for ∅)
//!   then { false }      # consequence Y; `false` is the denial sugar
//! }
//! ```

use crate::token::{tokenize, ParseError, Token};
use gfd_core::{Consequence, DepSet, Dependency, GenerateConsequence, Gfd, GfdSet, Literal};
use gfd_ged::{CmpOp, Ged, GedLiteral, GedSet};
use gfd_graph::{Graph, NodeId, Pattern, ValueId, ValueTable, VarId, Vocab};
use rustc_hash::FxHashMap;

/// A parsed document: named graphs, the generalized rule set, and
/// (optionally) GEDs.
#[derive(Debug, Default)]
pub struct Document {
    /// Named data graphs, in source order.
    pub graphs: Vec<(String, Graph)>,
    /// Every `gfd` and `ggd` block as a generalized [`Dependency`], in
    /// source order — what the reasoning and detection commands consume
    /// (mixed rule sets allowed).
    pub deps: DepSet,
    /// The `gfd` blocks only, in source order — the literal subset, kept
    /// for call sites that speak the classic [`GfdSet`].
    pub gfds: GfdSet,
    /// All GEDs (`ged NAME { ... }` blocks), in source order.
    pub geds: GedSet,
}

impl Document {
    /// Every rule as a GED: the declared GEDs plus the GFDs lifted into
    /// GED form. Useful when a file mixes both kinds and the caller wants
    /// to reason over the union with the GED algorithms.
    pub fn all_as_geds(&self) -> GedSet {
        let mut out = GedSet::new();
        for (_, g) in self.gfds.iter() {
            out.push(Ged::from_gfd(g));
        }
        for (_, g) in self.geds.iter() {
            out.push(g.clone());
        }
        out
    }
}

struct Parser<'v> {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    vocab: &'v mut Vocab,
}

impl<'v> Parser<'v> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let line = self
            .tokens
            .get(self.pos.min(self.tokens.len().saturating_sub(1)))
            .map_or(0, |(_, l)| *l);
        Err(ParseError {
            line,
            msg: msg.into(),
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, want: &Token) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.pos += 1;
                Ok(())
            }
            Some(t) => {
                let t = t.clone();
                self.err(format!("expected {want}, found {t}"))
            }
            None => self.err(format!("expected {want}, found end of input")),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            Some(t) => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {t}"))
            }
            None => self.err("expected identifier, found end of input"),
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<ValueId, ParseError> {
        // Intern at the parse boundary: repeated occurrences of the
        // same literal share one table entry (and one allocation).
        match self.next() {
            Some(Token::Str(s)) => Ok(ValueTable::intern_str(&s)),
            Some(Token::Int(i)) => Ok(ValueTable::intern_int(i)),
            Some(Token::Ident(s)) if s == "true" => Ok(ValueTable::intern_bool(true)),
            Some(Token::Ident(s)) if s == "false" => Ok(ValueTable::intern_bool(false)),
            Some(t) => {
                self.pos -= 1;
                self.err(format!("expected a value, found {t}"))
            }
            None => self.err("expected a value, found end of input"),
        }
    }

    fn parse_document(&mut self) -> Result<Document, ParseError> {
        let mut doc = Document::default();
        while let Some(t) = self.peek() {
            match t {
                Token::Ident(s) if s == "graph" => {
                    self.pos += 1;
                    let (name, graph) = self.parse_graph()?;
                    doc.graphs.push((name, graph));
                }
                Token::Ident(s) if s == "gfd" => {
                    self.pos += 1;
                    let gfd = self.parse_gfd_body()?;
                    doc.deps.push(Dependency::from_gfd(gfd.clone()));
                    doc.gfds.push(gfd);
                }
                Token::Ident(s) if s == "ggd" => {
                    self.pos += 1;
                    let dep = self.parse_ggd_body()?;
                    doc.deps.push(dep);
                }
                Token::Ident(s) if s == "ged" => {
                    self.pos += 1;
                    let ged = self.parse_ged_body()?;
                    doc.geds.push(ged);
                }
                t => {
                    let t = t.clone();
                    return self.err(format!(
                        "expected `graph`, `gfd`, `ggd` or `ged`, found {t}"
                    ));
                }
            }
        }
        Ok(doc)
    }

    fn parse_graph(&mut self) -> Result<(String, Graph), ParseError> {
        let name = self.expect_ident()?;
        self.expect(&Token::LBrace)?;
        let mut graph = Graph::new();
        let mut nodes: FxHashMap<String, NodeId> = FxHashMap::default();
        loop {
            if self.eat_keyword("node") {
                let node_name = self.expect_ident()?;
                self.expect(&Token::Colon)?;
                let label_name = self.expect_ident()?;
                let label = self.vocab.label(&label_name);
                if nodes.contains_key(&node_name) {
                    return self.err(format!("duplicate node `{node_name}`"));
                }
                let id = graph.add_node(label);
                nodes.insert(node_name, id);
                // Optional attribute block.
                if self.peek() == Some(&Token::LBrace) {
                    self.pos += 1;
                    loop {
                        if self.peek() == Some(&Token::RBrace) {
                            self.pos += 1;
                            break;
                        }
                        let attr_name = self.expect_ident()?;
                        let attr = self.vocab.attr(&attr_name);
                        self.expect(&Token::Eq)?;
                        let value = self.parse_value()?;
                        graph.set_attr_id(id, attr, value);
                        if self.peek() == Some(&Token::Comma) {
                            self.pos += 1;
                        }
                    }
                }
            } else if self.eat_keyword("edge") {
                let src = self.expect_ident()?;
                self.expect(&Token::Dash)?;
                let label_name = self.expect_ident()?;
                self.expect(&Token::Arrow)?;
                let dst = self.expect_ident()?;
                let (Some(&s), Some(&d)) = (nodes.get(&src), nodes.get(&dst)) else {
                    return self.err(format!("edge references unknown node `{src}`/`{dst}`"));
                };
                graph.add_edge(s, self.vocab.label(&label_name), d);
            } else if self.peek() == Some(&Token::RBrace) {
                self.pos += 1;
                break;
            } else {
                return self.err("expected `node`, `edge` or `}` in graph body");
            }
        }
        Ok((name, graph))
    }

    /// Parse a `pattern { node ... edge ... }` block.
    fn parse_pattern(&mut self) -> Result<(Pattern, FxHashMap<String, VarId>), ParseError> {
        if !self.eat_keyword("pattern") {
            return self.err("expected `pattern` block");
        }
        self.expect(&Token::LBrace)?;
        let mut pattern = Pattern::new();
        let mut vars: FxHashMap<String, VarId> = FxHashMap::default();
        loop {
            if self.eat_keyword("node") {
                let var_name = self.expect_ident()?;
                self.expect(&Token::Colon)?;
                let label_name = self.expect_ident()?;
                let label = self.vocab.label(&label_name);
                if vars.contains_key(&var_name) {
                    return self.err(format!("duplicate pattern variable `{var_name}`"));
                }
                let v = pattern.add_node(label, var_name.clone());
                vars.insert(var_name, v);
            } else if self.eat_keyword("edge") {
                let src = self.expect_ident()?;
                self.expect(&Token::Dash)?;
                let label_name = self.expect_ident()?;
                self.expect(&Token::Arrow)?;
                let dst = self.expect_ident()?;
                let (Some(&s), Some(&d)) = (vars.get(&src), vars.get(&dst)) else {
                    return self.err(format!("edge references unknown variable `{src}`/`{dst}`"));
                };
                pattern.add_edge(s, self.vocab.label(&label_name), d);
            } else if self.peek() == Some(&Token::RBrace) {
                self.pos += 1;
                break;
            } else {
                return self.err("expected `node`, `edge` or `}` in pattern body");
            }
        }
        if pattern.node_count() == 0 {
            return self.err("pattern must have at least one node");
        }
        Ok((pattern, vars))
    }

    fn parse_gfd_body(&mut self) -> Result<Gfd, ParseError> {
        let name = self.expect_ident()?;
        self.expect(&Token::LBrace)?;
        let (pattern, vars) = self.parse_pattern()?;

        // when { ... } (optional)
        let premise = if self.eat_keyword("when") {
            self.parse_literals(&pattern, &vars)?.ok_or(()).or_else(
                |_| -> Result<Vec<Literal>, ParseError> {
                    self.err("`false` is not allowed in a premise")
                },
            )?
        } else {
            Vec::new()
        };

        // then { ... }
        if !self.eat_keyword("then") {
            return self.err("expected `then` block");
        }
        let consequence = self.parse_literals(&pattern, &vars)?;
        self.expect(&Token::RBrace)?;

        Ok(match consequence {
            Some(lits) => Gfd::new(name, pattern, premise, lits),
            // `then { false }`: the denial sugar.
            None => Gfd::with_false_consequence(name, pattern, premise, self.vocab),
        })
    }

    /// Parse a `ggd NAME { pattern {...} [when {...}] create {...} }`
    /// block: a graph-generating dependency whose consequence asserts —
    /// and, under the chase, creates — a target subgraph:
    ///
    /// ```text
    /// ggd meetup {
    ///   pattern { node x: person  node y: person  edge x -knows-> y }
    ///   when { x.city = y.city }
    ///   create {
    ///     node m: meeting
    ///     edge x -attends-> m
    ///     edge y -attends-> m
    ///     set { m.city = x.city }
    ///   }
    /// }
    /// ```
    ///
    /// `node` entries are fresh variables (concrete labels only), `edge`
    /// entries may connect pattern and fresh variables freely, and the
    /// optional `set` block assigns attributes over the combined
    /// variable space.
    fn parse_ggd_body(&mut self) -> Result<Dependency, ParseError> {
        let name = self.expect_ident()?;
        self.expect(&Token::LBrace)?;
        let (pattern, mut vars) = self.parse_pattern()?;

        let premise = if self.eat_keyword("when") {
            match self.parse_literals(&pattern, &vars)? {
                Some(lits) => lits,
                None => return self.err("`false` is not allowed in a premise"),
            }
        } else {
            Vec::new()
        };

        if !self.eat_keyword("create") {
            return self.err("expected `create` block in ggd");
        }
        self.expect(&Token::LBrace)?;
        let mut gen = GenerateConsequence::over(&pattern);
        let mut attrs: Option<Vec<Literal>> = None;
        loop {
            if self.eat_keyword("node") {
                let var_name = self.expect_ident()?;
                if vars.contains_key(&var_name) {
                    return self.err(format!("duplicate variable `{var_name}` in create"));
                }
                self.expect(&Token::Colon)?;
                let label_name = self.expect_ident()?;
                let label = self.vocab.label(&label_name);
                if label.is_wildcard() {
                    return self.err(format!(
                        "generated node `{var_name}` needs a concrete label, not `_`"
                    ));
                }
                let v = gen.add_fresh(label, var_name.clone());
                vars.insert(var_name, v);
            } else if self.eat_keyword("edge") {
                let src = self.expect_ident()?;
                self.expect(&Token::Dash)?;
                let label_name = self.expect_ident()?;
                self.expect(&Token::Arrow)?;
                let dst = self.expect_ident()?;
                let (Some(&s), Some(&d)) = (vars.get(&src), vars.get(&dst)) else {
                    return self.err(format!("edge references unknown variable `{src}`/`{dst}`"));
                };
                let label = self.vocab.label(&label_name);
                if label.is_wildcard() {
                    return self.err("generated edges need a concrete label, not `_`");
                }
                gen.add_edge(s, label, d);
            } else if self.eat_keyword("set") {
                if attrs.is_some() {
                    return self.err("duplicate `set` block in create");
                }
                let target = gen.pattern.clone();
                match self.parse_literals(&target, &vars)? {
                    Some(lits) => attrs = Some(lits),
                    None => return self.err("`false` is not allowed in a `set` block"),
                }
            } else if self.peek() == Some(&Token::RBrace) {
                self.pos += 1;
                break;
            } else {
                return self.err("expected `node`, `edge`, `set` or `}` in create body");
            }
        }
        for lit in attrs.unwrap_or_default() {
            gen.push_attr(lit);
        }
        self.expect(&Token::RBrace)?;
        Ok(Dependency::new(
            name,
            pattern,
            premise,
            Consequence::Generate(gen),
        ))
    }

    /// Parse `{ lit, lit, ... }`. Returns `None` for the special body
    /// `{ false }`.
    #[allow(clippy::type_complexity)]
    fn parse_literals(
        &mut self,
        pattern: &Pattern,
        vars: &FxHashMap<String, VarId>,
    ) -> Result<Option<Vec<Literal>>, ParseError> {
        self.expect(&Token::LBrace)?;
        let mut lits = Vec::new();
        let mut first = true;
        loop {
            if self.peek() == Some(&Token::RBrace) {
                self.pos += 1;
                break;
            }
            // `false` alone means the Boolean constant.
            if first && matches!(self.peek(), Some(Token::Ident(s)) if s == "false") {
                // Only if not a literal start (`false.x = ...` is not valid
                // var syntax anyway since `false` is reserved here).
                self.pos += 1;
                self.expect(&Token::RBrace)?;
                return Ok(None);
            }
            first = false;
            let var_name = self.expect_ident()?;
            let Some(&var) = vars.get(&var_name) else {
                return self.err(format!("unknown variable `{var_name}` in literal"));
            };
            self.expect(&Token::Dot)?;
            let attr_name = self.expect_ident()?;
            let attr = self.vocab.attr(&attr_name);
            self.expect(&Token::Eq)?;
            // Right-hand side: `var.attr` or a constant.
            let lit = match self.peek() {
                Some(Token::Ident(s)) if s != "true" && s != "false" => {
                    let rhs_name = self.expect_ident()?;
                    let Some(&rhs_var) = vars.get(&rhs_name) else {
                        return self.err(format!("unknown variable `{rhs_name}` in literal"));
                    };
                    self.expect(&Token::Dot)?;
                    let rhs_attr_name = self.expect_ident()?;
                    let rhs_attr = self.vocab.attr(&rhs_attr_name);
                    Literal::eq_attr(var, attr, rhs_var, rhs_attr)
                }
                _ => Literal::eq_id(var, attr, self.parse_value()?),
            };
            let _ = pattern;
            lits.push(lit);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            }
        }
        Ok(Some(lits))
    }

    /// Parse a `ged NAME { pattern {...} [when {...}] then {...}
    /// [or {...}]* }` block. `then { false }` is the denial (no disjunct);
    /// each `or` block adds a disjunct.
    fn parse_ged_body(&mut self) -> Result<Ged, ParseError> {
        let name = self.expect_ident()?;
        self.expect(&Token::LBrace)?;
        let (pattern, vars) = self.parse_pattern()?;

        let premise = if self.eat_keyword("when") {
            match self.parse_ged_literals(&vars)? {
                Some(lits) => lits,
                None => return self.err("`false` is not allowed in a premise"),
            }
        } else {
            Vec::new()
        };

        if !self.eat_keyword("then") {
            return self.err("expected `then` block");
        }
        let mut disjuncts = Vec::new();
        match self.parse_ged_literals(&vars)? {
            Some(lits) => disjuncts.push(lits),
            None => {
                // `then { false }`: a denial — no `or` blocks allowed.
                if self.eat_keyword("or") {
                    return self.err("`or` after `then { false }` makes no sense");
                }
                self.expect(&Token::RBrace)?;
                return Ok(Ged::new(name, pattern, premise, Vec::new()));
            }
        }
        while self.eat_keyword("or") {
            match self.parse_ged_literals(&vars)? {
                Some(lits) => disjuncts.push(lits),
                None => return self.err("`false` is not allowed in an `or` disjunct"),
            }
        }
        self.expect(&Token::RBrace)?;
        Ok(Ged::new(name, pattern, premise, disjuncts))
    }

    /// Parse one comparison operator token.
    fn parse_cmp_op(&mut self) -> Result<CmpOp, ParseError> {
        match self.next() {
            Some(Token::Eq) => Ok(CmpOp::Eq),
            Some(Token::Neq) => Ok(CmpOp::Ne),
            Some(Token::Lt) => Ok(CmpOp::Lt),
            Some(Token::Le) => Ok(CmpOp::Le),
            Some(Token::Gt) => Ok(CmpOp::Gt),
            Some(Token::Ge) => Ok(CmpOp::Ge),
            Some(t) => {
                self.pos -= 1;
                self.err(format!("expected a comparison operator, found {t}"))
            }
            None => self.err("expected a comparison operator, found end of input"),
        }
    }

    /// Parse `{ lit, ... }` with GED literals: `x.A op c`, `x.A op y.B`,
    /// or `x.id = y.id` (the id literal — `id` on *both* sides with `=`).
    /// Returns `None` for the special body `{ false }`.
    fn parse_ged_literals(
        &mut self,
        vars: &FxHashMap<String, VarId>,
    ) -> Result<Option<Vec<GedLiteral>>, ParseError> {
        self.expect(&Token::LBrace)?;
        let mut lits = Vec::new();
        let mut first = true;
        loop {
            if self.peek() == Some(&Token::RBrace) {
                self.pos += 1;
                break;
            }
            if first && matches!(self.peek(), Some(Token::Ident(s)) if s == "false") {
                self.pos += 1;
                self.expect(&Token::RBrace)?;
                return Ok(None);
            }
            first = false;
            let var_name = self.expect_ident()?;
            let Some(&var) = vars.get(&var_name) else {
                return self.err(format!("unknown variable `{var_name}` in literal"));
            };
            self.expect(&Token::Dot)?;
            let attr_name = self.expect_ident()?;
            let op = self.parse_cmp_op()?;
            // Right-hand side: `var.attr`, `var.id`, or a constant.
            let lit = match self.peek() {
                Some(Token::Ident(s)) if s != "true" && s != "false" => {
                    let rhs_name = self.expect_ident()?;
                    let Some(&rhs_var) = vars.get(&rhs_name) else {
                        return self.err(format!("unknown variable `{rhs_name}` in literal"));
                    };
                    self.expect(&Token::Dot)?;
                    let rhs_attr_name = self.expect_ident()?;
                    if attr_name == "id" && rhs_attr_name == "id" {
                        // The id literal: both sides are `.id`.
                        if op != CmpOp::Eq {
                            return self.err("id literals support `=` only (x.id = y.id)");
                        }
                        GedLiteral::id(var, rhs_var)
                    } else {
                        GedLiteral::cmp_attr(
                            var,
                            self.vocab.attr(&attr_name),
                            op,
                            rhs_var,
                            self.vocab.attr(&rhs_attr_name),
                        )
                    }
                }
                _ => GedLiteral::cmp_id(var, self.vocab.attr(&attr_name), op, self.parse_value()?),
            };
            lits.push(lit);
            if self.peek() == Some(&Token::Comma) {
                self.pos += 1;
            }
        }
        Ok(Some(lits))
    }
}

/// Parse a full document (graphs and GFDs) from `src`.
pub fn parse_document(src: &str, vocab: &mut Vocab) -> Result<Document, ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        vocab,
    };
    p.parse_document()
}

/// Parse a source containing exactly one GFD.
pub fn parse_gfd(src: &str, vocab: &mut Vocab) -> Result<Gfd, ParseError> {
    let doc = parse_document(src, vocab)?;
    if doc.gfds.len() != 1 || doc.deps.len() != 1 || !doc.graphs.is_empty() || !doc.geds.is_empty()
    {
        return Err(ParseError {
            line: 1,
            msg: format!(
                "expected exactly one gfd, found {} gfds, {} geds and {} graphs",
                doc.gfds.len(),
                doc.geds.len(),
                doc.graphs.len()
            ),
        });
    }
    Ok(doc.gfds.as_slice()[0].clone())
}

/// Parse a source containing exactly one GED.
pub fn parse_ged(src: &str, vocab: &mut Vocab) -> Result<Ged, ParseError> {
    let doc = parse_document(src, vocab)?;
    if doc.geds.len() != 1 || !doc.graphs.is_empty() || !doc.deps.is_empty() {
        return Err(ParseError {
            line: 1,
            msg: format!(
                "expected exactly one ged, found {} geds, {} gfds and {} graphs",
                doc.geds.len(),
                doc.gfds.len(),
                doc.graphs.len()
            ),
        });
    }
    Ok(doc.geds.get(gfd_graph::GfdId::new(0)).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfd_graph::LabelId;

    #[test]
    fn parse_phi1_denial() {
        let mut vocab = Vocab::new();
        let gfd = parse_gfd(
            "gfd phi1 {\n  pattern {\n    node x: place\n    node y: place\n    edge x -locateIn-> y\n    edge y -partOf-> x\n  }\n  then { false }\n}",
            &mut vocab,
        )
        .unwrap();
        assert_eq!(gfd.name, "phi1");
        assert_eq!(gfd.pattern.node_count(), 2);
        assert_eq!(gfd.pattern.edge_count(), 2);
        assert!(gfd.has_empty_premise());
        assert!(gfd.is_denial());
    }

    #[test]
    fn parse_phi3_with_literals() {
        let mut vocab = Vocab::new();
        let src = r#"
            gfd phi3 {
              pattern {
                node x: person
                node y: person
                node z: country
                edge x -president-> z
                edge y -vicePresident-> z
              }
              when { x.c = y.c }
              then { x.nationality = y.nationality }
            }
        "#;
        let gfd = parse_gfd(src, &mut vocab).unwrap();
        assert_eq!(gfd.premise.len(), 1);
        assert_eq!(gfd.consequence.len(), 1);
        assert!(!gfd.is_denial());
    }

    #[test]
    fn parse_wildcard_and_constants() {
        let mut vocab = Vocab::new();
        let src = r#"
            gfd g {
              pattern { node x: _ }
              then { x.a = 1, x.b = "s", x.c = true, x.d = -3 }
            }
        "#;
        let gfd = parse_gfd(src, &mut vocab).unwrap();
        assert_eq!(gfd.pattern.label(VarId::new(0)), LabelId::WILDCARD);
        assert_eq!(gfd.consequence.len(), 4);
    }

    #[test]
    fn parse_graph_with_attrs() {
        let mut vocab = Vocab::new();
        let src = r#"
            graph G {
              node a: place { name = "Bamburi airport", pop = 100 }
              node b: place
              edge a -locateIn-> b
              edge b -partOf-> a
            }
        "#;
        let doc = parse_document(src, &mut vocab).unwrap();
        assert_eq!(doc.graphs.len(), 1);
        let g = &doc.graphs[0].1;
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 2);
        let name = vocab.find_attr("name").unwrap();
        assert_eq!(
            g.attr(NodeId::new(0), name),
            Some(ValueId::of("Bamburi airport"))
        );
    }

    #[test]
    fn errors_are_informative() {
        let mut vocab = Vocab::new();
        let err = parse_gfd(
            "gfd g { pattern { node x: t } then { y.a = 1 } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown variable"), "{err}");
        let err = parse_gfd("gfd g { pattern { } then { } }", &mut vocab).unwrap_err();
        assert!(err.msg.contains("at least one node"), "{err}");
        let err = parse_document("graph G { edge a -e-> b }", &mut vocab).unwrap_err();
        assert!(err.msg.contains("unknown node"), "{err}");
        let err = parse_document("bogus", &mut vocab).unwrap_err();
        assert!(
            err.msg.contains("expected `graph`, `gfd`, `ggd` or `ged`"),
            "{err}"
        );
    }

    #[test]
    fn parse_ggd_create_block() {
        let mut vocab = Vocab::new();
        let src = r#"
            ggd meetup {
              pattern {
                node x: person
                node y: person
                edge x -knows-> y
              }
              when { x.city = y.city }
              create {
                node m: meeting
                edge x -attends-> m
                edge y -attends-> m
                set { m.city = x.city, m.open = true }
              }
            }
        "#;
        let doc = parse_document(src, &mut vocab).unwrap();
        assert_eq!(doc.deps.len(), 1);
        assert!(doc.gfds.is_empty());
        let dep = doc.deps.get(gfd_graph::GfdId::new(0));
        assert!(dep.is_generating());
        assert_eq!(dep.premise.len(), 1);
        let gfd_core::Consequence::Generate(gen) = &dep.consequence else {
            panic!("expected a generating consequence")
        };
        assert_eq!(gen.shared, 2);
        assert_eq!(gen.fresh_count(), 1);
        assert_eq!(gen.pattern.edge_count(), 2);
        assert_eq!(gen.attrs.len(), 2);
        assert_eq!(gen.pattern.var_name(VarId::new(2)), "m");
    }

    #[test]
    fn mixed_gfd_ggd_documents_keep_source_order() {
        let mut vocab = Vocab::new();
        let src = r#"
            gfd a { pattern { node x: t } then { x.v = 1 } }
            ggd b { pattern { node x: t } create { node y: u edge x -e-> y } }
            gfd c { pattern { node x: t } then { x.w = 2 } }
        "#;
        let doc = parse_document(src, &mut vocab).unwrap();
        assert_eq!(doc.deps.len(), 3);
        assert_eq!(doc.gfds.len(), 2);
        let names: Vec<&str> = doc.deps.iter().map(|(_, d)| d.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert!(doc.deps.has_generating());
        // The literal deps match their gfd twins byte for byte.
        assert_eq!(
            doc.deps
                .get(gfd_graph::GfdId::new(0))
                .as_gfd()
                .unwrap()
                .consequence,
            doc.gfds.get(gfd_graph::GfdId::new(0)).consequence
        );
    }

    #[test]
    fn ggd_errors_are_informative() {
        let mut vocab = Vocab::new();
        let err = parse_document(
            "ggd g { pattern { node x: t } create { node y: _ } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("concrete label"), "{err}");
        let err = parse_document(
            "ggd g { pattern { node x: t } create { node x: u } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("duplicate variable"), "{err}");
        let err = parse_document(
            "ggd g { pattern { node x: t } create { edge x -e-> z } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown variable"), "{err}");
        let err = parse_document(
            "ggd g { pattern { node x: t } then { x.a = 1 } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("expected `create`"), "{err}");
        let err = parse_document(
            "ggd g { pattern { node x: t } create { set { false } } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("`false` is not allowed"), "{err}");
    }

    #[test]
    fn parse_ged_with_order_and_disjunction() {
        let mut vocab = Vocab::new();
        let src = r#"
            ged policy {
              pattern { node p: product }
              when { p.discounted = true }
              then { p.price < 50 }
              or   { p.clearance = true, p.price <= 20 }
            }
        "#;
        let ged = parse_ged(src, &mut vocab).unwrap();
        assert_eq!(ged.name, "policy");
        assert_eq!(ged.premise.len(), 1);
        assert_eq!(ged.disjuncts.len(), 2);
        assert_eq!(ged.disjuncts[0].len(), 1);
        assert_eq!(ged.disjuncts[1].len(), 2);
    }

    #[test]
    fn parse_ged_id_literal_and_key() {
        let mut vocab = Vocab::new();
        let src = r#"
            ged person_key {
              pattern { node x: person node y: person }
              when { x.email = y.email }
              then { x.id = y.id }
            }
        "#;
        let ged = parse_ged(src, &mut vocab).unwrap();
        use gfd_ged::GedLiteral;
        assert!(matches!(ged.disjuncts[0][0], GedLiteral::Id { .. }));
        // `x.id = 5` is an *attribute* named id, not an id literal.
        let src2 = "ged g { pattern { node x: t } then { x.id = 5 } }";
        let ged2 = parse_ged(src2, &mut vocab).unwrap();
        assert!(matches!(ged2.disjuncts[0][0], GedLiteral::AttrConst { .. }));
    }

    #[test]
    fn parse_ged_denial_and_all_ops() {
        let mut vocab = Vocab::new();
        let ged = parse_ged(
            "ged d { pattern { node x: t } when { x.a != 1, x.b > 2, x.c >= 3 } then { false } }",
            &mut vocab,
        )
        .unwrap();
        assert!(ged.is_denial());
        assert_eq!(ged.premise.len(), 3);
    }

    #[test]
    fn ged_errors_are_informative() {
        let mut vocab = Vocab::new();
        let err = parse_ged(
            "ged g { pattern { node x: t } then { x.id < y.id } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("unknown variable"), "{err}");
        let err = parse_ged(
            "ged g { pattern { node x: t node y: t } then { x.id < y.id } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("id literals support `=`"), "{err}");
        let err = parse_ged(
            "ged g { pattern { node x: t } then { false } or { x.a = 1 } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("makes no sense"), "{err}");
        let err = parse_ged(
            "ged g { pattern { node x: t } when { false } then { x.a = 1 } }",
            &mut vocab,
        )
        .unwrap_err();
        assert!(err.msg.contains("premise"), "{err}");
    }

    #[test]
    fn mixed_gfd_and_ged_document_lifts() {
        let mut vocab = Vocab::new();
        let src = r#"
            gfd a { pattern { node x: t } then { x.v = 1 } }
            ged b { pattern { node x: t } then { x.v >= 1 } }
        "#;
        let doc = parse_document(src, &mut vocab).unwrap();
        assert_eq!(doc.gfds.len(), 1);
        assert_eq!(doc.geds.len(), 1);
        let all = doc.all_as_geds();
        assert_eq!(all.len(), 2);
        // The combined set is satisfiable (v = 1 satisfies both).
        assert!(gfd_ged::ged_sat(&all).is_satisfiable());
    }

    #[test]
    fn mixed_document() {
        let mut vocab = Vocab::new();
        let src = r#"
            graph data { node n: t }
            gfd a { pattern { node x: t } then { x.v = 1 } }
            gfd b { pattern { node x: t } when { x.v = 1 } then { x.w = 2 } }
        "#;
        let doc = parse_document(src, &mut vocab).unwrap();
        assert_eq!(doc.graphs.len(), 1);
        assert_eq!(doc.gfds.len(), 2);
    }
}
