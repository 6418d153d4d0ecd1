//! # hdsj-analyze — what is left of the retired static checker
//!
//! The checker's three rules now live as ordinary tests next to the code
//! they guard (DESIGN.md §10), and its parser, symbol table, call graph,
//! rules and CLI are gone. Only the [`lexer`] and its unit tests remain;
//! nothing in the workspace depends on it, and ROADMAP item 9 deletes it.
#![forbid(unsafe_code)]

pub mod lexer;
