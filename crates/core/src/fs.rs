//! The AtomFS file system object.

use std::sync::Arc;

use atomfs_trace::{Event, TraceSink};

use crate::blocks::BlockStore;
use crate::metrics::FsMetrics;
use crate::table::InodeTable;

/// Sizing knobs for an [`AtomFs`] instance.
#[derive(Debug, Clone, Copy)]
pub struct AtomFsConfig {
    /// Maximum number of live inodes.
    pub max_inodes: usize,
    /// Maximum number of 4 KiB data blocks.
    pub max_blocks: usize,
    /// Whether path lookups may use the optimistic (seqlock-validated,
    /// rcu-walk-style) fast path before falling back to lock coupling.
    /// On by default; turn off to force the fully pessimistic walk —
    /// the differential tests and benchmarks compare the two.
    pub optimistic: bool,
}

impl Default for AtomFsConfig {
    fn default() -> Self {
        AtomFsConfig {
            max_inodes: 1 << 20,
            max_blocks: 1 << 20, // 4 GiB of file data
            optimistic: true,
        }
    }
}

/// AtomFS: a fine-grained concurrent in-memory file system.
///
/// Every operation takes per-inode locks along its path using lock
/// coupling (hand-over-hand), which establishes the paper's
/// *non-bypassable criterion* (§5.1) and makes every interface
/// linearizable. File data lives in a shared [`BlockStore`]; each
/// directory's entries live in one hashed index.
///
/// An instance built with [`AtomFs::traced`] additionally reports every
/// atomic step (lock transitions, mutations, linearization points) to a
/// [`TraceSink`], which is how the CRL-H checker in the `crlh` crate
/// validates executions. Untraced instances skip all instrumentation.
///
/// # Examples
///
/// ```
/// use atomfs::AtomFs;
/// use atomfs_vfs::FileSystem;
///
/// let fs = AtomFs::new();
/// fs.mkdir("/a").unwrap();
/// fs.mknod("/a/f").unwrap();
/// fs.write("/a/f", 0, b"hello").unwrap();
/// fs.rename("/a/f", "/a/g").unwrap();
/// assert_eq!(fs.stat("/a/g").unwrap().size, 5);
/// ```
pub struct AtomFs {
    pub(crate) table: InodeTable,
    pub(crate) store: BlockStore,
    pub(crate) sink: Option<Arc<dyn TraceSink>>,
    pub(crate) metrics: Option<Arc<FsMetrics>>,
    pub(crate) optimistic: bool,
}

impl Default for AtomFs {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomFs {
    /// Create an untraced file system with default sizing.
    pub fn new() -> Self {
        Self::with_config(AtomFsConfig::default())
    }

    /// Create an untraced file system with explicit sizing.
    pub fn with_config(cfg: AtomFsConfig) -> Self {
        AtomFs {
            table: InodeTable::new(cfg.max_inodes),
            store: BlockStore::new(cfg.max_blocks),
            sink: None,
            metrics: None,
            optimistic: cfg.optimistic,
        }
    }

    /// Create an instrumented file system reporting to `sink`.
    pub fn traced(sink: Arc<dyn TraceSink>) -> Self {
        Self::traced_with_config(sink, AtomFsConfig::default())
    }

    /// Create an instrumented file system with explicit sizing.
    pub fn traced_with_config(sink: Arc<dyn TraceSink>, cfg: AtomFsConfig) -> Self {
        AtomFs {
            table: InodeTable::new(cfg.max_inodes),
            store: BlockStore::new(cfg.max_blocks),
            sink: Some(sink),
            metrics: None,
            optimistic: cfg.optimistic,
        }
    }

    /// Attach a metrics bundle (builder-style: applies to any
    /// constructor). Metrics are orthogonal to tracing — tracing records
    /// the logical event stream for the checker, metrics record timing
    /// distributions — so the two can be enabled independently.
    pub fn with_metrics(mut self, metrics: Arc<FsMetrics>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Whether instrumentation is active.
    pub fn is_traced(&self) -> bool {
        self.sink.is_some()
    }

    /// Whether the optimistic fast path is enabled (see
    /// [`AtomFsConfig::optimistic`]).
    #[inline]
    pub fn opt_enabled(&self) -> bool {
        self.optimistic
    }

    /// The attached metrics bundle, if any. `None` (no bundle attached) is
    /// the runtime off switch: every metrics site is then one branch.
    #[inline]
    pub(crate) fn m(&self) -> Option<&FsMetrics> {
        self.metrics.as_deref()
    }

    /// Number of live inodes (including the root).
    pub fn live_inodes(&self) -> usize {
        self.table.live()
    }

    /// Number of allocated data blocks.
    pub fn allocated_blocks(&self) -> usize {
        self.store.allocated()
    }

    /// Emit an instrumentation event; free when untraced.
    #[inline]
    pub(crate) fn emit(&self, ev: impl FnOnce() -> Event) {
        if let Some(sink) = &self.sink {
            sink.emit(ev());
        }
    }

    /// Hand the sink the operation's primary inode as a shard-routing
    /// hint (see [`TraceSink::shard_hint`]), first asking the sink to
    /// admit the mutation at all ([`TraceSink::admit_mutation`]); free
    /// when untraced. `Err(ReadOnly)` means the sink has lost the
    /// durability domain behind `primary` — the caller must fail the
    /// operation *before* its first mutation, so the trace stays exactly
    /// the mutations the sink could log.
    #[inline]
    pub(crate) fn hint(
        &self,
        tid: atomfs_trace::Tid,
        primary: atomfs_trace::Inum,
    ) -> atomfs_vfs::FsResult<()> {
        if let Some(sink) = &self.sink {
            if !sink.admit_mutation(primary) {
                return Err(atomfs_vfs::FsError::ReadOnly);
            }
            sink.shard_hint(tid, primary);
        }
        Ok(())
    }

    /// Admission check alone, for an operation's *secondary* inode (a
    /// rename's destination parent): no routing hint is delivered, the
    /// sink just gets a veto.
    #[inline]
    pub(crate) fn admit(&self, primary: atomfs_trace::Inum) -> atomfs_vfs::FsResult<()> {
        match &self.sink {
            Some(sink) if !sink.admit_mutation(primary) => Err(atomfs_vfs::FsError::ReadOnly),
            _ => Ok(()),
        }
    }
}
