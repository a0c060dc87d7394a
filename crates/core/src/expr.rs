//! The compositional strategy language: search combinators à la
//! "Search Combinators" (Schrijvers et al.).
//!
//! [`StrategySpec`] is a flat bag of knobs; naming every one of them for
//! every member gets long. This module is the input grammar in front of
//! that bag: a small expression tree in which *primitives* pick one
//! aspect of the search (`branch(dlis)` the branching order, `value(neg)`
//! the polarity order, `probe(7)` the diversification seed, plus
//! `simplify`/`prune`/`map`/`backend` passthroughs), and *combinators*
//! compose them:
//!
//! * `and(e, ...)` — apply every child to the same search;
//! * `or(e, ...)` — try the children **in sequence**, moving on when an
//!   attempt exhausts its limits (iterative deepening is
//!   `or(limit(nodes,N,mesh), limit(nodes,4N,mesh), mesh)`);
//! * `restart(<schedule>, e)` — run `e` under a CDCL restart schedule
//!   (`luby:N` / `fixed:N`);
//! * `limit(discrepancy|nodes|time, N, e)` — bound one attempt of `e`
//!   (limited-discrepancy search, per-node expansion budgets, logical
//!   step/operation budgets);
//! * `portfolio(e, ...)` — race the children as portfolio members with
//!   knowledge sharing: the members of a
//!   [`PortfolioSpec`](crate::PortfolioSpec).
//!
//! Expressions round-trip through `Display`/`FromStr` like every other
//! spec. The parser is a real recursive-descent parser with bounded
//! depth *and* token count (untrusted input — same defensive posture as
//! `obs::json`), and reports byte positions in its errors.
//!
//! The tree is never carried past the parse and never interpreted:
//! [`StrategyExpr::members`] *lowers* it into flat [`MemberPlan`]s — one
//! per portfolio member, each a sequence of [`StrategySpec`] attempts —
//! and `"...".parse::<PortfolioSpec>()` does both steps at once. The
//! [`PortfolioSpec`](crate::PortfolioSpec) is the value every layer above
//! carries, validates, keys caches on and persists, so the same members
//! are the same job whichever grammar spelled them, and all the
//! bit-identity guarantees (every backend spelling, any checkpoint
//! slicing) carry over to expression-driven runs for free.

use hyperspace_sat::{Heuristic, Polarity, RestartPolicy, SimplifyMode};

use crate::spec::{
    BackendSpec, EngineSpec, MapperSpec, MemberPlan, PruneSpec, SpecParseError, StrategySpec,
};

/// Deepest combinator nesting the expression parser accepts. Same
/// defensive pattern as `obs::json`: expressions arrive from untrusted
/// job submissions, and unbounded recursion is a stack-overflow panic.
pub const MAX_EXPR_DEPTH: usize = 16;

/// Most tokens (names, parens, commas, arguments) one expression may
/// contain. Bounds total parse work on hostile input.
pub const MAX_EXPR_TOKENS: usize = 512;

/// What a `limit(...)` combinator bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LimitKind {
    /// Limited-discrepancy search: at most `n` deviations from the
    /// heuristic's preferred branch on any root-to-leaf path (DPLL mesh
    /// searches only — a discrepancy bound is meaningless to CDCL).
    Discrepancy,
    /// At most `n` activations expanded per mesh node (the B&B path
    /// honours this too); CDCL members read it as a decision budget.
    Nodes,
    /// At most `n` *logical* time units: simulated steps for mesh
    /// members, search operations for CDCL members. Deliberately not
    /// wall-clock — logical budgets keep runs bit-identical.
    Time,
}

impl LimitKind {
    fn name(self) -> &'static str {
        match self {
            LimitKind::Discrepancy => "discrepancy",
            LimitKind::Nodes => "nodes",
            LimitKind::Time => "time",
        }
    }
}

impl std::fmt::Display for LimitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for LimitKind {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `discrepancy`,
    /// `nodes`, `time`.
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        match s {
            "discrepancy" => Ok(LimitKind::Discrepancy),
            "nodes" => Ok(LimitKind::Nodes),
            "time" => Ok(LimitKind::Time),
            other => Err(SpecParseError::new(format!(
                "{s:?}: expected limit kind discrepancy, nodes or time, got {other:?}"
            ))),
        }
    }
}

/// One bound on a search attempt: a [`LimitKind`] and its budget.
///
/// String form `kind:N` (e.g. `nodes:4096`), used by the flat
/// [`StrategySpec`] syntax's repeatable `limit=` key; inside expressions
/// the kind and budget are separate arguments (`limit(nodes,4096,...)`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LimitSpec {
    /// What is bounded.
    pub kind: LimitKind,
    /// The budget (must be > 0 for `nodes`/`time`; `discrepancy:0`
    /// legitimately means "follow the heuristic exactly").
    pub n: u64,
}

impl LimitSpec {
    /// A limited-discrepancy bound.
    pub fn discrepancy(n: u64) -> LimitSpec {
        LimitSpec {
            kind: LimitKind::Discrepancy,
            n,
        }
    }

    /// A per-node activation budget.
    pub fn nodes(n: u64) -> LimitSpec {
        LimitSpec {
            kind: LimitKind::Nodes,
            n,
        }
    }

    /// A logical-time budget.
    pub fn time(n: u64) -> LimitSpec {
        LimitSpec {
            kind: LimitKind::Time,
            n,
        }
    }
}

impl std::fmt::Display for LimitSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.kind, self.n)
    }
}

impl std::str::FromStr for LimitSpec {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax: `kind:N`.
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        let (kind, n) = s.split_once(':').ok_or_else(|| {
            SpecParseError::new(format!("{s:?}: expected limit kind:N, got {s:?}"))
        })?;
        let kind: LimitKind = kind.parse().map_err(|_| {
            SpecParseError::new(format!(
                "{s:?}: expected limit kind discrepancy, nodes or time, got {kind:?}"
            ))
        })?;
        let n: u64 = n.parse().map_err(|_| {
            SpecParseError::new(format!("{s:?}: expected a limit budget, got {n:?}"))
        })?;
        LimitSpec { kind, n }.validated(s)
    }
}

impl LimitSpec {
    fn validated(self, src: &str) -> Result<LimitSpec, SpecParseError> {
        if self.n == 0 && self.kind != LimitKind::Discrepancy {
            return Err(SpecParseError::new(format!(
                "{src:?}: expected a {} budget > 0, got 0",
                self.kind
            )));
        }
        Ok(self)
    }
}

/// A search-strategy expression: primitives composed by combinators,
/// one variant per form of the language (each renders as its lower-case
/// name applied to its arguments, e.g. `limit(nodes,64,branch(dlis))`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrategyExpr {
    /// The five-layer mesh engine (the default).
    Mesh,
    /// The clause-learning sequential engine (SAT only).
    Cdcl,
    /// Branch-variable order: which literal to split on.
    Branch(Heuristic),
    /// Value order: which polarity of the branching literal goes first.
    Value(Polarity),
    /// Diversification seed (reseeds seeded heuristics/mappers, rotates
    /// the CDCL branching scan).
    Probe(u64),
    /// Per-activation simplification strength (mesh SAT).
    Simplify(SimplifyMode),
    /// Pruning policy, warm starts included (mesh B&B).
    Prune(PruneSpec),
    /// Mapping-policy override.
    Map(MapperSpec),
    /// Execution backend. Backends are bit-identical, so this never
    /// changes what is computed — [`MemberPlan::describe`] leaves it out.
    Backend(BackendSpec),
    /// All children applied to the same search.
    And(Vec<StrategyExpr>),
    /// Children tried in sequence; an attempt that exhausts its limits
    /// hands over to the next.
    Or(Vec<StrategyExpr>),
    /// The child under a CDCL restart schedule.
    Restart(RestartPolicy, Box<StrategyExpr>),
    /// The child bounded by one [`LimitSpec`].
    Limit(LimitSpec, Box<StrategyExpr>),
    /// Children raced as knowledge-sharing portfolio members
    /// (top level only).
    Portfolio(Vec<StrategyExpr>),
}

impl std::fmt::Display for StrategyExpr {
    /// Canonical compact rendering: `and(branch(dlis),value(neg))` —
    /// no whitespace (the parser *accepts* whitespace; the renderer
    /// never emits it, so rendered forms are canonical cache-key
    /// material).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let list = |f: &mut std::fmt::Formatter<'_>, name: &str, children: &[StrategyExpr]| {
            write!(f, "{name}(")?;
            for (i, child) in children.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{child}")?;
            }
            f.write_str(")")
        };
        match self {
            StrategyExpr::Mesh => f.write_str("mesh"),
            StrategyExpr::Cdcl => f.write_str("cdcl"),
            StrategyExpr::Branch(h) => write!(f, "branch({h})"),
            StrategyExpr::Value(p) => write!(f, "value({p})"),
            StrategyExpr::Probe(seed) => write!(f, "probe({seed})"),
            StrategyExpr::Simplify(m) => write!(f, "simplify({m})"),
            StrategyExpr::Prune(p) => write!(f, "prune({p})"),
            StrategyExpr::Map(m) => write!(f, "map({m})"),
            StrategyExpr::Backend(b) => write!(f, "backend({b})"),
            StrategyExpr::And(children) => list(f, "and", children),
            StrategyExpr::Or(children) => list(f, "or", children),
            StrategyExpr::Restart(policy, inner) => write!(f, "restart({policy},{inner})"),
            StrategyExpr::Limit(limit, inner) => {
                write!(f, "limit({},{},{inner})", limit.kind, limit.n)
            }
            StrategyExpr::Portfolio(children) => list(f, "portfolio", children),
        }
    }
}

impl std::str::FromStr for StrategyExpr {
    type Err = SpecParseError;

    /// Parses the [`Display`](std::fmt::Display) syntax (whitespace
    /// between tokens is tolerated). Depth is bounded by
    /// [`MAX_EXPR_DEPTH`] and total tokens by [`MAX_EXPR_TOKENS`];
    /// errors carry the byte position of the offending token.
    fn from_str(s: &str) -> Result<Self, SpecParseError> {
        let mut p = Parser {
            src: s,
            pos: 0,
            tokens: 0,
        };
        let expr = p.expr(0)?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(p.err("end of expression"));
        }
        Ok(expr)
    }
}

/// Recursive-descent parser over the expression syntax. Tracks its byte
/// position for error messages and counts every consumed token against
/// [`MAX_EXPR_TOKENS`].
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    tokens: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, expected: &str) -> SpecParseError {
        let got = match self.src[self.pos..].chars().next() {
            Some(c) => format!("{:?}", c),
            None => "end of input".to_string(),
        };
        SpecParseError::new(format!(
            "{:?}: expected {expected} at byte {}, got {got}",
            self.src, self.pos
        ))
    }

    fn skip_ws(&mut self) {
        while self.src[self.pos..].starts_with(|c: char| c.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn count_token(&mut self) -> Result<(), SpecParseError> {
        self.tokens += 1;
        if self.tokens > MAX_EXPR_TOKENS {
            return Err(SpecParseError::new(format!(
                "{:?}: expected at most {MAX_EXPR_TOKENS} tokens, got more (at byte {})",
                self.src, self.pos
            )));
        }
        Ok(())
    }

    /// Consumes one punctuation character.
    fn expect(&mut self, ch: char) -> Result<(), SpecParseError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(ch) {
            self.pos += ch.len_utf8();
            self.count_token()
        } else {
            Err(self.err(&format!("{ch:?}")))
        }
    }

    fn peek_is(&mut self, ch: char) -> bool {
        self.skip_ws();
        self.src[self.pos..].starts_with(ch)
    }

    /// Consumes a combinator/primitive name (`[a-z-]+`).
    fn ident(&mut self) -> Result<&'a str, SpecParseError> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let len = rest
            .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .unwrap_or(rest.len());
        if len == 0 {
            return Err(self.err("a combinator or primitive name"));
        }
        self.pos += len;
        self.count_token()?;
        Ok(&rest[..len])
    }

    /// Consumes one raw (non-expression) argument: text up to the next
    /// `,` or `)`, trimmed. Sub-spec grammars (heuristics, mappers,
    /// restart schedules, ...) parse the text themselves.
    fn raw_arg(&mut self, what: &str) -> Result<&'a str, SpecParseError> {
        self.skip_ws();
        let rest = &self.src[self.pos..];
        let len = rest.find([',', ')', '(']).unwrap_or(rest.len());
        if rest[len..].starts_with('(') {
            return Err(self.err(what));
        }
        let arg = rest[..len].trim_end();
        if arg.is_empty() {
            return Err(self.err(what));
        }
        self.pos += len;
        self.count_token()?;
        Ok(arg)
    }

    /// Parses one raw argument through a sub-spec grammar, prefixing
    /// parse failures with this expression's position.
    fn sub_spec<T>(&mut self, what: &str) -> Result<T, SpecParseError>
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        let at = self.pos;
        let raw = self.raw_arg(what)?;
        raw.parse::<T>().map_err(|e| {
            SpecParseError::new(format!(
                "{:?}: expected {what} at byte {at}, got {raw:?} ({e})",
                self.src
            ))
        })
    }

    /// Parses a comma-separated list of sub-expressions up to `)`.
    fn expr_list(&mut self, depth: usize) -> Result<Vec<StrategyExpr>, SpecParseError> {
        self.expect('(')?;
        let mut children = vec![self.expr(depth)?];
        while self.peek_is(',') {
            self.expect(',')?;
            children.push(self.expr(depth)?);
        }
        self.expect(')')?;
        Ok(children)
    }

    fn expr(&mut self, depth: usize) -> Result<StrategyExpr, SpecParseError> {
        if depth >= MAX_EXPR_DEPTH {
            return Err(SpecParseError::new(format!(
                "{:?}: expected nesting at most {MAX_EXPR_DEPTH} deep, got more (at byte {})",
                self.src, self.pos
            )));
        }
        let name = self.ident()?;
        match name {
            "mesh" => Ok(StrategyExpr::Mesh),
            "cdcl" => Ok(StrategyExpr::Cdcl),
            "branch" => {
                self.expect('(')?;
                let h = self.sub_spec("a branching heuristic")?;
                self.expect(')')?;
                Ok(StrategyExpr::Branch(h))
            }
            "value" => {
                self.expect('(')?;
                let p = self.sub_spec("a polarity (pos/neg)")?;
                self.expect(')')?;
                Ok(StrategyExpr::Value(p))
            }
            "probe" => {
                self.expect('(')?;
                let seed = self.sub_spec("a probe seed")?;
                self.expect(')')?;
                Ok(StrategyExpr::Probe(seed))
            }
            "simplify" => {
                self.expect('(')?;
                let m = self.sub_spec("a simplify mode")?;
                self.expect(')')?;
                Ok(StrategyExpr::Simplify(m))
            }
            "prune" => {
                self.expect('(')?;
                let p = self.sub_spec("a prune policy")?;
                self.expect(')')?;
                Ok(StrategyExpr::Prune(p))
            }
            "map" => {
                self.expect('(')?;
                let m = self.sub_spec("a mapper policy")?;
                self.expect(')')?;
                Ok(StrategyExpr::Map(m))
            }
            "backend" => {
                self.expect('(')?;
                let b = self.sub_spec("an execution backend")?;
                self.expect(')')?;
                Ok(StrategyExpr::Backend(b))
            }
            "and" => Ok(StrategyExpr::And(self.expr_list(depth + 1)?)),
            "or" => Ok(StrategyExpr::Or(self.expr_list(depth + 1)?)),
            "portfolio" => Ok(StrategyExpr::Portfolio(self.expr_list(depth + 1)?)),
            "restart" => {
                self.expect('(')?;
                let policy: RestartPolicy = self.sub_spec("a restart schedule")?;
                self.expect(',')?;
                let inner = self.expr(depth + 1)?;
                self.expect(')')?;
                Ok(StrategyExpr::Restart(policy, Box::new(inner)))
            }
            "limit" => {
                self.expect('(')?;
                let kind: LimitKind = self.sub_spec("a limit kind")?;
                self.expect(',')?;
                let at = self.pos;
                let n: u64 = self.sub_spec("a limit budget")?;
                if n == 0 && kind != LimitKind::Discrepancy {
                    return Err(SpecParseError::new(format!(
                        "{:?}: expected a {kind} budget > 0 at byte {at}, got 0",
                        self.src
                    )));
                }
                self.expect(',')?;
                let inner = self.expr(depth + 1)?;
                self.expect(')')?;
                Ok(StrategyExpr::Limit(LimitSpec { kind, n }, Box::new(inner)))
            }
            other => Err(SpecParseError::new(format!(
                "{:?}: expected a known combinator or primitive at byte {}, got {other:?}",
                self.src,
                self.pos - other.len()
            ))),
        }
    }
}

/// One attempt mid-lowering: the flat spec plus whether its engine was
/// *explicitly* chosen (so `restart(...)` can reject `mesh` underneath
/// it while silently upgrading the default engine to CDCL).
#[derive(Clone)]
struct Plan {
    spec: StrategySpec,
    engine_explicit: bool,
}

fn conflict(msg: impl Into<String>) -> SpecParseError {
    SpecParseError::new(msg.into())
}

/// Most attempts one lowered member may expand to. `or` distributes
/// under `and`, so crafted expressions could otherwise multiply plans
/// combinatorially.
const MAX_PLAN_ATTEMPTS: usize = 256;

/// Applies one expression to every plan in `acc`, multiplying plans out
/// where the expression branches (`or` distributes under `and`).
fn lower(expr: &StrategyExpr, acc: Vec<Plan>) -> Result<Vec<Plan>, SpecParseError> {
    let map = |acc: Vec<Plan>, f: &dyn Fn(&mut Plan)| {
        acc.into_iter()
            .map(|mut p| {
                f(&mut p);
                p
            })
            .collect::<Vec<Plan>>()
    };
    match expr {
        StrategyExpr::Mesh => {
            for p in &acc {
                if p.engine_explicit && matches!(p.spec.engine, EngineSpec::Cdcl { .. }) {
                    return Err(conflict(format!(
                        "{expr}: expected one engine per member, got mesh after cdcl"
                    )));
                }
            }
            Ok(map(acc, &|p| {
                p.spec.engine = EngineSpec::Mesh;
                p.engine_explicit = true;
            }))
        }
        StrategyExpr::Cdcl => {
            for p in &acc {
                if p.engine_explicit && p.spec.engine == EngineSpec::Mesh {
                    return Err(conflict(format!(
                        "{expr}: expected one engine per member, got cdcl after mesh"
                    )));
                }
            }
            Ok(map(acc, &|p| {
                if !matches!(p.spec.engine, EngineSpec::Cdcl { .. }) {
                    p.spec.engine = EngineSpec::Cdcl {
                        restart: RestartPolicy::Off,
                    };
                }
                p.engine_explicit = true;
            }))
        }
        StrategyExpr::Branch(h) => Ok(map(acc, &|p| p.spec.heuristic = *h)),
        StrategyExpr::Value(pol) => Ok(map(acc, &|p| p.spec.polarity = *pol)),
        StrategyExpr::Probe(seed) => Ok(map(acc, &|p| p.spec.seed = *seed)),
        StrategyExpr::Simplify(m) => Ok(map(acc, &|p| p.spec.simplify = *m)),
        StrategyExpr::Prune(pr) => Ok(map(acc, &|p| p.spec.prune = *pr)),
        StrategyExpr::Map(m) => Ok(map(acc, &|p| p.spec.mapper = Some(m.clone()))),
        StrategyExpr::Backend(b) => Ok(map(acc, &|p| p.spec.backend = b.clone())),
        StrategyExpr::And(children) => {
            let mut acc = acc;
            for child in children {
                acc = lower(child, acc)?;
            }
            Ok(acc)
        }
        StrategyExpr::Or(children) => {
            let mut out = Vec::new();
            for child in children {
                out.extend(lower(child, acc.clone())?);
                if out.len() > MAX_PLAN_ATTEMPTS {
                    return Err(conflict(format!(
                        "{expr}: expected at most {MAX_PLAN_ATTEMPTS} attempts per member, got more"
                    )));
                }
            }
            Ok(out)
        }
        StrategyExpr::Restart(policy, inner) => {
            let plans = lower(inner, acc)?;
            for p in &plans {
                if p.engine_explicit && p.spec.engine == EngineSpec::Mesh {
                    return Err(conflict(format!(
                        "restart({policy},...): expected a cdcl search underneath, got mesh"
                    )));
                }
            }
            Ok(map(plans, &|p| {
                p.spec.engine = EngineSpec::Cdcl { restart: *policy };
                p.engine_explicit = true;
            }))
        }
        StrategyExpr::Limit(limit, inner) => {
            let plans = lower(inner, acc)?;
            Ok(map(plans, &|p| p.spec.limits.push(*limit)))
        }
        // `members` peels a top-level portfolio off before lowering, so
        // reaching this arm always means nesting.
        StrategyExpr::Portfolio(_) => Err(conflict(
            "portfolio(...): expected portfolio only at the top level, got it nested",
        )),
    }
}

fn finish(plans: Vec<Plan>) -> Result<MemberPlan, SpecParseError> {
    let mut attempts = Vec::with_capacity(plans.len());
    for p in plans {
        p.spec.check_limits_fit_engine()?;
        attempts.push(p.spec);
    }
    Ok(MemberPlan { attempts })
}

impl StrategyExpr {
    /// Lowers the expression into flat portfolio member plans: one
    /// [`MemberPlan`] per `portfolio(...)` child (a single plan for
    /// non-portfolio expressions), each holding the `or(...)`-expanded
    /// attempt sequence. Errors on contradictions the flat engines
    /// cannot run (nested portfolios, `restart` over an explicit mesh
    /// search, a discrepancy limit on CDCL).
    pub fn members(&self) -> Result<Vec<MemberPlan>, SpecParseError> {
        let base = || Plan {
            spec: StrategySpec::default(),
            engine_explicit: false,
        };
        match self {
            StrategyExpr::Portfolio(children) => {
                if children.is_empty() {
                    return Err(conflict(
                        "portfolio(): expected at least one member, got none",
                    ));
                }
                children
                    .iter()
                    .map(|c| finish(lower(c, vec![base()])?))
                    .collect()
            }
            other => Ok(vec![finish(lower(other, vec![base()])?)?]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> StrategyExpr {
        s.parse::<StrategyExpr>()
            .unwrap_or_else(|e| panic!("{s:?} failed to parse: {e}"))
    }

    #[test]
    fn expressions_display_round_trip() {
        let exprs = [
            "mesh",
            "cdcl",
            "branch(dlis)",
            "branch(random:9)",
            "value(neg)",
            "probe(7)",
            "simplify(split-only)",
            "prune(incumbent:40)",
            "map(weight-aware:4:8)",
            "backend(sharded:2:rr)",
            "and(branch(dlis),value(neg))",
            "or(limit(nodes,64,mesh),limit(nodes,256,mesh),mesh)",
            "restart(luby:64,cdcl)",
            "restart(fixed:32,and(value(neg),probe(3)))",
            "limit(discrepancy,2,and(branch(jeroslow-wang),simplify(split-only)))",
            "limit(time,4096,mesh)",
            "portfolio(mesh,restart(luby:8,cdcl),limit(discrepancy,1,mesh))",
        ];
        for text in exprs {
            let expr = parse(text);
            assert_eq!(expr.to_string(), text, "canonical form of {text:?}");
            assert_eq!(parse(&expr.to_string()), expr, "round-trip of {text:?}");
        }
    }

    #[test]
    fn whitespace_is_tolerated_but_never_emitted() {
        let spaced = " and( branch( dlis ) , value( neg ) ) ";
        assert_eq!(parse(spaced).to_string(), "and(branch(dlis),value(neg))");
    }

    #[test]
    fn malformed_expressions_are_rejected_with_positions() {
        for bad in [
            "",
            "warp",
            "and()",
            "and(mesh",
            "branch()",
            "branch(jw)",
            "limit(fuel,3,mesh)",
            "limit(nodes,0,mesh)",
            "limit(nodes,3)",
            "restart(luby:0,cdcl)",
            "mesh extra",
            "and(mesh,)",
            "branch(and(mesh))",
        ] {
            let err = bad.parse::<StrategyExpr>();
            assert!(err.is_err(), "{bad:?} should fail: {err:?}");
        }
        let err = "and(mesh,warp)".parse::<StrategyExpr>().unwrap_err();
        let text = err.to_string();
        assert!(text.contains("expected"), "{text}");
        assert!(text.contains("byte 9"), "{text}");
        assert!(text.contains("\"warp\""), "{text}");
    }

    #[test]
    fn depth_and_token_bounds_hold() {
        let mut deep = String::new();
        for _ in 0..MAX_EXPR_DEPTH + 1 {
            deep.push_str("and(");
        }
        deep.push_str("mesh");
        for _ in 0..MAX_EXPR_DEPTH + 1 {
            deep.push(')');
        }
        let err = deep.parse::<StrategyExpr>().unwrap_err().to_string();
        assert!(err.contains("nesting"), "{err}");

        let wide = format!("and({})", vec!["mesh"; MAX_EXPR_TOKENS].join(","));
        let err = wide.parse::<StrategyExpr>().unwrap_err().to_string();
        assert!(err.contains("tokens"), "{err}");
    }

    #[test]
    fn or_builds_attempt_sequences_and_distributes_under_and() {
        let expr = parse("and(or(limit(nodes,8,mesh),mesh),value(neg))");
        let members = expr.members().expect("lowers");
        assert_eq!(members.len(), 1);
        let attempts = &members[0].attempts;
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0].limits, vec![LimitSpec::nodes(8)]);
        assert_eq!(attempts[0].polarity, Polarity::Negative);
        assert!(attempts[1].limits.is_empty());
        assert_eq!(attempts[1].polarity, Polarity::Negative);
    }

    #[test]
    fn restart_forces_cdcl_and_rejects_explicit_mesh() {
        let members = parse("restart(luby:64,value(neg))")
            .members()
            .expect("lowers");
        assert_eq!(
            members[0].attempts[0].engine,
            EngineSpec::Cdcl {
                restart: RestartPolicy::Luby(64)
            }
        );
        assert!(parse("restart(luby:64,mesh)").members().is_err());
        assert!(parse("and(cdcl,mesh)").members().is_err());
        assert!(parse("and(mesh,cdcl)").members().is_err());
    }

    #[test]
    fn portfolio_lowers_one_plan_per_child_and_rejects_nesting() {
        let members = parse("portfolio(mesh,restart(luby:8,cdcl),branch(dlis))")
            .members()
            .expect("lowers");
        assert_eq!(members.len(), 3);
        assert_eq!(members[0].attempts[0], StrategySpec::mesh());
        assert_eq!(
            members[1].attempts[0].engine,
            EngineSpec::Cdcl {
                restart: RestartPolicy::Luby(8)
            }
        );
        assert_eq!(members[2].attempts[0].heuristic, Heuristic::Dlis);
        assert!(parse("and(portfolio(mesh),value(neg))").members().is_err());
        assert!(parse("portfolio(portfolio(mesh))").members().is_err());
    }

    #[test]
    fn discrepancy_limits_reject_cdcl() {
        assert!(parse("limit(discrepancy,2,cdcl)").members().is_err());
        assert!(parse("and(limit(discrepancy,2,mesh))").members().is_ok());
        // Engine decided after the limit still counts.
        assert!(parse("and(limit(discrepancy,2,probe(1)),cdcl)")
            .members()
            .is_err());
    }

    #[test]
    fn flat_and_expression_spellings_lower_to_the_same_plan() {
        // (flat member text, expression text): one member, two grammars.
        for (flat, expr) in [
            ("mesh", "mesh"),
            (
                "mesh,h=dlis,s=split-only,pol=neg,seed=7,prune=incumbent:40,map=random:3,\
                 backend=sharded:2",
                "and(branch(dlis),simplify(split-only),value(neg),probe(7),\
                 prune(incumbent:40),map(random:3),backend(sharded:2))",
            ),
            ("cdcl", "cdcl"),
            (
                "cdcl,restart=luby:64,pol=neg,seed=3",
                "restart(luby:64,and(value(neg),probe(3)))",
            ),
            ("mesh,limit=nodes:128", "limit(nodes,128,mesh)"),
            (
                "mesh,limit=discrepancy:2,limit=time:4096",
                "limit(time,4096,limit(discrepancy,2,mesh))",
            ),
            (
                "mesh,limit=nodes:64>>mesh,h=dlis",
                "or(limit(nodes,64,mesh),branch(dlis))",
            ),
        ] {
            let plan: MemberPlan = flat.parse().expect("flat text parses");
            assert_eq!(parse(expr).members().expect("lowers"), vec![plan], "{expr}");
        }
    }

    #[test]
    fn limit_spec_round_trips_and_rejects_garbage() {
        for spec in [
            LimitSpec::discrepancy(0),
            LimitSpec::nodes(4096),
            LimitSpec::time(1),
        ] {
            let text = spec.to_string();
            assert_eq!(text.parse::<LimitSpec>().unwrap(), spec, "{text:?}");
        }
        for bad in ["", "nodes", "nodes:", "nodes:0", "nodes:x", "fuel:3"] {
            assert!(bad.parse::<LimitSpec>().is_err(), "{bad:?} should fail");
        }
    }
}
