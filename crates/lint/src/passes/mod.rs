//! The analysis passes of `fractos-analyze`.
//!
//! Each pass is a pure function from loaded [`SourceFile`]s to
//! [`Finding`]s; ordering and allowlisting happen in
//! [`analyze`](crate::analyze).
//!
//! [`SourceFile`]: crate::SourceFile
//! [`Finding`]: crate::Finding

pub mod hazards;
pub mod hotpath;
