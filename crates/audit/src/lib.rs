//! gridwatch-audit: offline checkpoint validation for the gridwatch
//! workspace.
//!
//! The [`checkpoint`] validator, driven by `gridwatch audit --checkpoint`,
//! checks a checkpoint directory's semantic invariants more deeply than
//! `--resume` itself does. The persisted formats are pinned by the compat
//! fixtures under `tests/fixtures/compat`.
//!
//! The rest of what used to be audited here is checked elsewhere: the
//! per-file rules (no panics, no naked float comparisons, no unbounded
//! channels in the runtime crates) are compiler lints set at each runtime
//! crate's root, and the leaf rule for locks (no lock taken and no
//! blocking call made under a held guard) is `gridwatch-sync`'s runtime
//! check, armed in every debug build.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod checkpoint;
