//! The query engine and its query language (Figure 3's fifth component).
//!
//! "The query engine evaluates queries by the system administrators and the
//! access control engine based on the information stored in all of the
//! databases. The design of a query language ... will be part of our future
//! work" — this module supplies that language:
//!
//! ```text
//! ACCESSIBLE FOR Alice                 -- Algorithm 1 complement
//! INACCESSIBLE FOR Alice               -- §6's headline query
//! CAN Alice ENTER CAIS AT 10           -- Definition 7 probe
//! WHERE Alice AT 15                    -- historical whereabouts
//! WHO IN CAIS AT 15                    -- occupancy snapshot
//! WHO IN CAIS DURING [10, 50]          -- presence over a window
//! CONTACTS OF Alice DURING [0, 100]    -- co-location (SARS tracing)
//! VIOLATIONS FOR Alice DURING [0, 50]  -- filtered violation log
//! ```
//!
//! Keywords are case-insensitive; subject and location names are bare
//! words (dots allowed: `SCE.GO`) or double-quoted strings; `[a, b]`
//! intervals accept `inf`/`∞` as the upper bound.
//!
//! The language reads the reference
//! [`AccessControlEngine`](crate::engine::AccessControlEngine), which is
//! never pruned, so its historical answers are complete from the epoch.
//! History bounded by retention is read through `ltam-store`'s tier-aware
//! `ReadView`, which merges the archive below the watermark.

mod ast;
mod eval;
mod lexer;
mod parser;

pub use ast::{Query, QueryResult};
pub use eval::{eval, EvalError, QueryContext};
pub use lexer::{LexError, Token};
pub use parser::{parse, ParseError};

/// Parse and evaluate a query string in one step.
pub fn run(input: &str, ctx: &QueryContext<'_>) -> Result<QueryResult, QueryError> {
    let query = parse(input)?;
    Ok(eval(&query, ctx)?)
}

/// Any query-pipeline failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The input did not parse.
    Parse(ParseError),
    /// The query referenced unknown names.
    Eval(EvalError),
}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}

impl From<EvalError> for QueryError {
    fn from(e: EvalError) -> Self {
        QueryError::Eval(e)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "parse error: {e}"),
            QueryError::Eval(e) => write!(f, "evaluation error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}
