//! The crash oracle the crash and fault-storm suites share: the recorded
//! mutation stream, every state its prefixes reach, and a content
//! comparison of a recovered mount against one of those states.

use atomfs_trace::{BufferSink, Event, MicroOp};
use atomfs_vfs::FileSystem;
use crlh::FsState;

/// The mutation stream `recorder` has recorded, in order.
pub fn mutations(recorder: &BufferSink) -> Vec<MicroOp> {
    recorder
        .snapshot()
        .iter()
        .filter_map(|e| match e {
            Event::Mutate { mop, .. } => Some(mop.clone()),
            _ => None,
        })
        .collect()
}

/// All states reachable by prefixes of `muts` (index = prefix length).
pub fn prefix_states(muts: &[MicroOp]) -> Vec<FsState> {
    let mut states = Vec::with_capacity(muts.len() + 1);
    let mut s = FsState::new();
    states.push(s.clone());
    for m in muts {
        s.apply_micro(m).expect("recorded stream replays");
        states.push(s.clone());
    }
    states
}

/// Canonical content comparison between a recovered live FS and an
/// abstract state: same tree shape, names, and file bytes.
pub fn fs_matches_state(fs: &dyn FileSystem, state: &FsState) -> bool {
    fn walk(fs: &dyn FileSystem, state: &FsState, id: u64, path: &str) -> bool {
        match state.node(id) {
            Some(crlh::Node::Dir(entries)) => {
                let Ok(mut names) = fs.readdir(path) else {
                    return false;
                };
                names.sort();
                let mut expected: Vec<&String> = entries.keys().collect();
                expected.sort();
                if names.iter().collect::<Vec<_>>() != expected {
                    return false;
                }
                entries.iter().all(|(name, child)| {
                    walk(fs, state, *child, &atomfs_vfs::path::join(path, name))
                })
            }
            Some(crlh::Node::File(data)) => {
                let Ok(meta) = fs.stat(path) else {
                    return false;
                };
                if meta.size != data.len() as u64 {
                    return false;
                }
                let mut buf = vec![0u8; data.len()];
                matches!(fs.read(path, 0, &mut buf), Ok(n) if n == data.len() && buf == *data)
            }
            None => false,
        }
    }
    walk(fs, state, state.root, "/")
}
