//! DIMACS CNF parsing and serialisation.
//!
//! The standard interchange format of the SATLIB benchmarks (§V-C, ref
//! \[42\]): a `p cnf <vars> <clauses>` header followed by zero-terminated
//! clauses; `c` lines are comments, `%`/`0` trailer lines (present in the
//! SATLIB uf20-91 files) are tolerated.

use crate::cnf::{Clause, Cnf, Lit};

/// Errors from [`parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DimacsError {
    /// No `p cnf` header line found.
    MissingHeader,
    /// Header malformed.
    BadHeader(String),
    /// A literal token failed to parse or referenced a variable beyond the
    /// declared count.
    BadLiteral(String),
    /// Fewer clauses than declared.
    TruncatedFormula {
        /// Declared count.
        declared: usize,
        /// Clauses actually present.
        found: usize,
    },
}

impl std::fmt::Display for DimacsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DimacsError::MissingHeader => write!(f, "missing 'p cnf' header"),
            DimacsError::BadHeader(l) => write!(f, "malformed header: {l}"),
            DimacsError::BadLiteral(t) => write!(f, "bad literal: {t}"),
            DimacsError::TruncatedFormula { declared, found } => {
                write!(f, "header declares {declared} clauses, found {found}")
            }
        }
    }
}

impl std::error::Error for DimacsError {}

/// Parses a DIMACS CNF document.
pub fn parse(text: &str) -> Result<Cnf, DimacsError> {
    let mut num_vars: Option<u32> = None;
    let mut declared_clauses = 0usize;
    let mut clauses = Vec::new();
    let mut current = Vec::new();

    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if line.starts_with('%') {
            break; // SATLIB trailer
        }
        if let Some(rest) = line.strip_prefix('p') {
            // A second header would silently reset the variable bound and
            // re-validate already-parsed literals against it; reject the
            // document instead.
            if num_vars.is_some() {
                return Err(DimacsError::BadHeader(line.to_string()));
            }
            let parts: Vec<&str> = rest.split_whitespace().collect();
            if parts.len() != 3 || parts[0] != "cnf" {
                return Err(DimacsError::BadHeader(line.to_string()));
            }
            let declared_vars: u32 = parts[1]
                .parse()
                .map_err(|_| DimacsError::BadHeader(line.to_string()))?;
            // Literals pack `var * 2 + sign` into a u32 (and render as
            // i32), so universes beyond i32::MAX variables would alias
            // silently; no real instance comes near this.
            if declared_vars > i32::MAX as u32 {
                return Err(DimacsError::BadHeader(line.to_string()));
            }
            num_vars = Some(declared_vars);
            declared_clauses = parts[2]
                .parse()
                .map_err(|_| DimacsError::BadHeader(line.to_string()))?;
            // An adversarial header ("p cnf 1 99999999999") must not
            // pre-allocate unbounded memory.
            clauses.reserve(declared_clauses.min(1 << 20));
            continue;
        }
        let vars = num_vars.ok_or(DimacsError::MissingHeader)?;
        for tok in line.split_whitespace() {
            let v: i32 = tok
                .parse()
                .map_err(|_| DimacsError::BadLiteral(tok.to_string()))?;
            if v == 0 {
                clauses.push(Clause::new(std::mem::take(&mut current)));
            } else {
                if v.unsigned_abs() > vars {
                    return Err(DimacsError::BadLiteral(tok.to_string()));
                }
                current.push(Lit::from_dimacs(v));
            }
        }
    }
    let vars = num_vars.ok_or(DimacsError::MissingHeader)?;
    if !current.is_empty() {
        clauses.push(Clause::new(std::mem::take(&mut current)));
    }
    if clauses.len() < declared_clauses {
        return Err(DimacsError::TruncatedFormula {
            declared: declared_clauses,
            found: clauses.len(),
        });
    }
    Ok(Cnf::new(vars, clauses))
}

/// Serialises a formula to DIMACS.
pub fn to_string(cnf: &Cnf) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses());
    for clause in cnf.clauses() {
        for lit in clause {
            let _ = write!(out, "{} ", lit.to_dimacs());
        }
        out.push_str("0\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cnf::Var;

    const SAMPLE: &str = "\
c a tiny instance
p cnf 3 2
1 -2 0
2 3 -1 0
";

    #[test]
    fn parse_sample() {
        let cnf = parse(SAMPLE).unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0)[1], Lit::neg(Var(1)));
    }

    #[test]
    fn roundtrip() {
        let cnf = parse(SAMPLE).unwrap();
        let text = to_string(&cnf);
        let again = parse(&text).unwrap();
        assert_eq!(cnf, again);
    }

    #[test]
    fn multiline_clause_and_trailer() {
        let text = "p cnf 2 1\n1\n-2\n0\n%\n0\n";
        let cnf = parse(text).unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.clause(0).len(), 2);
    }

    #[test]
    fn errors() {
        assert_eq!(parse("1 2 0\n"), Err(DimacsError::MissingHeader));
        assert!(matches!(
            parse("p cnf x 2\n"),
            Err(DimacsError::BadHeader(_))
        ));
        assert!(matches!(
            parse("p cnf 2 1\n9 0\n"),
            Err(DimacsError::BadLiteral(_))
        ));
        assert!(matches!(
            parse("p cnf 2 5\n1 0\n"),
            Err(DimacsError::TruncatedFormula { .. })
        ));
    }

    #[test]
    fn duplicate_headers_are_rejected() {
        // Regression: a second `p cnf` line used to silently reset the
        // variable bound mid-document, accepting inconsistent files.
        let text = "p cnf 2 1\n1 0\np cnf 9 1\n9 0\n";
        assert!(matches!(parse(text), Err(DimacsError::BadHeader(_))));
    }

    #[test]
    fn absurd_variable_counts_are_rejected() {
        // Universes beyond i32::MAX variables would overflow the packed
        // literal representation; the header must be refused up front.
        let text = format!("p cnf {} 0\n", u32::MAX);
        assert!(matches!(parse(&text), Err(DimacsError::BadHeader(_))));
        // The largest representable universe still parses.
        let ok = format!("p cnf {} 0\n", i32::MAX);
        assert_eq!(parse(&ok).unwrap().num_vars(), i32::MAX as u32);
    }

    #[test]
    fn comments_and_crlf_anywhere_between_tokens() {
        // Comment lines may interrupt a clause split across lines, and
        // CRLF endings must not leak '\r' into literal tokens.
        let text = "c head\r\np cnf 3 2\r\n1\r\nc mid-clause comment\r\n-2 0\r\n2 3 0\r\n";
        let cnf = parse(text).unwrap();
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.clause(0), [Lit::pos(Var(0)), Lit::neg(Var(1))]);
    }
}
