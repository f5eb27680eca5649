//! A journaled mount hands the journal sink every optimistic claim of
//! the file system it logs. A claim carries nothing to log, so the sink
//! decides it by validating alone: no stamp, no frame, and no copy of the
//! claimed chain. The shared counting allocator (`atomfs_obs::alloc`)
//! pins the last part.

use std::sync::Arc;

use atomfs_journal::{BlockDevice, Disk, ShardConfig, ShardedJournalSink};
use atomfs_obs::alloc::{measure, Counting};
use atomfs_trace::{Tid, TraceSink};

#[global_allocator]
static A: Counting = Counting;

#[test]
fn journal_sink_decides_claims_without_logging_or_allocating() {
    let disk = Arc::new(Disk::new()) as Arc<dyn BlockDevice>;
    let sink = ShardedJournalSink::new(disk, ShardConfig::default());
    let chain = [1, 2, 3];
    let spent = measure(|| {
        for i in 0..1000 {
            let ok = i % 2 == 0;
            assert_eq!(sink.claim(Tid(1), &chain, true, &|| ok), ok);
        }
    });
    assert_eq!(spent.allocs, 0, "a claim allocated");
    assert_eq!(sink.stamps_issued(), 0, "a claim took a stamp");
    sink.sync().expect("an empty sync on a healthy disk");
    assert_eq!(sink.log_bytes(), 0, "a claim reached the log");
}
