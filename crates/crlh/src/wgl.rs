//! A generic linearizability checker (Wing–Gong enumeration with Lowe's
//! memoization).
//!
//! Linearizability is equivalent to contextual refinement of the atomic
//! specification (§2); this checker decides it *directly from a history*
//! of invocations and responses, with no knowledge of linearization
//! points, locks, or helpers. It exists to cross-validate the LP-based
//! simulation checker: on any history both accept, and the witness order
//! this checker finds is a legal sequentialization.
//!
//! The search is exponential in the number of overlapping operations, so
//! it is only suitable for small histories (the integration tests use a
//! handful of threads and a few operations each); the LP checker is the
//! scalable tool.

use std::collections::HashSet;

use atomfs_trace::{OpDesc, OpRet, Tid};

use crate::afs::step;
use crate::history::{HEvent, History};
use crate::state::FsState;

/// One operation of a complete history.
#[derive(Debug, Clone)]
struct OpRec {
    tid: Tid,
    op: OpDesc,
    inv: usize,
    res: usize,
    ret: OpRet,
}

/// The witness: operations in a legal sequential order.
pub type Witness = Vec<(Tid, OpDesc, OpRet)>;

/// Decide whether `history` is linearizable with respect to the abstract
/// file system specification, starting from an empty file system.
///
/// Returns a witness sequential order on success. Histories must be
/// *complete* (every invocation matched by a response) and are limited to
/// 64 operations — enough for cross-validation purposes.
pub fn check_linearizable(history: &History) -> Result<Witness, String> {
    let ops = collect_ops(history)?;
    if ops.len() > 64 {
        return Err(format!(
            "history too large for WGL search: {} ops",
            ops.len()
        ));
    }
    let full_mask: u64 = if ops.len() == 64 {
        u64::MAX
    } else {
        (1u64 << ops.len()) - 1
    };
    let mut memo: HashSet<(u64, u64)> = HashSet::new();
    let mut order = Vec::with_capacity(ops.len());
    let state = FsState::new();
    if dfs(&ops, 0, full_mask, state, &mut memo, &mut order) {
        Ok(order)
    } else {
        Err("no legal sequentialization exists".to_string())
    }
}

fn collect_ops(history: &History) -> Result<Vec<OpRec>, String> {
    let mut open: std::collections::HashMap<Tid, (OpDesc, usize)> = Default::default();
    let mut ops = Vec::new();
    for (i, ev) in history.events.iter().enumerate() {
        match ev {
            HEvent::Inv { tid, op } => {
                if open.insert(*tid, (op.clone(), i)).is_some() {
                    return Err(format!("{tid} has overlapping invocations"));
                }
            }
            HEvent::Res { tid, ret } => match open.remove(tid) {
                Some((op, inv)) => ops.push(OpRec {
                    tid: *tid,
                    op,
                    inv,
                    res: i,
                    ret: ret.clone(),
                }),
                None => return Err(format!("{tid} responded without invocation")),
            },
        }
    }
    if !open.is_empty() {
        return Err("history is incomplete (pending operations)".to_string());
    }
    Ok(ops)
}

fn dfs(
    ops: &[OpRec],
    done: u64,
    full: u64,
    state: FsState,
    memo: &mut HashSet<(u64, u64)>,
    order: &mut Witness,
) -> bool {
    if done == full {
        return true;
    }
    if !memo.insert((done, state.canonical_fingerprint())) {
        return false;
    }
    // An undone op is a candidate for the next linearization slot iff no
    // other undone op responded before it was invoked.
    let min_res = ops
        .iter()
        .enumerate()
        .filter(|(i, _)| done & (1 << i) == 0)
        .map(|(_, o)| o.res)
        .min()
        .expect("not all done");
    for (i, rec) in ops.iter().enumerate() {
        if done & (1 << i) != 0 || rec.inv > min_res {
            continue;
        }
        let mut next_state = state.clone();
        if step(&mut next_state, &rec.op) != rec.ret {
            continue;
        }
        order.push((rec.tid, rec.op.clone(), rec.ret.clone()));
        if dfs(ops, done | (1 << i), full, next_state, memo, order) {
            return true;
        }
        order.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use atomfs_vfs::FsError;

    fn comps(s: &[&str]) -> Vec<String> {
        s.iter().map(|c| c.to_string()).collect()
    }

    fn hist(events: Vec<HEvent>) -> History {
        History { events }
    }

    #[test]
    fn sequential_history_linearizes() {
        let h = hist(vec![
            HEvent::Inv {
                tid: Tid(1),
                op: OpDesc::Mkdir {
                    path: comps(&["a"]),
                },
            },
            HEvent::Res {
                tid: Tid(1),
                ret: OpRet::Ok,
            },
            HEvent::Inv {
                tid: Tid(1),
                op: OpDesc::Mkdir {
                    path: comps(&["a"]),
                },
            },
            HEvent::Res {
                tid: Tid(1),
                ret: OpRet::Err(FsError::Exists),
            },
        ]);
        let w = check_linearizable(&h).unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn overlapping_ops_may_commute() {
        // Two concurrent creates of different names: both orders legal.
        let h = hist(vec![
            HEvent::Inv {
                tid: Tid(1),
                op: OpDesc::Mknod {
                    path: comps(&["a"]),
                },
            },
            HEvent::Inv {
                tid: Tid(2),
                op: OpDesc::Mknod {
                    path: comps(&["b"]),
                },
            },
            HEvent::Res {
                tid: Tid(2),
                ret: OpRet::Ok,
            },
            HEvent::Res {
                tid: Tid(1),
                ret: OpRet::Ok,
            },
        ]);
        assert!(check_linearizable(&h).is_ok());
    }

    #[test]
    fn illegal_history_rejected() {
        // A stat returns success for a path that never existed.
        let h = hist(vec![
            HEvent::Inv {
                tid: Tid(1),
                op: OpDesc::Stat {
                    path: comps(&["ghost"]),
                },
            },
            HEvent::Res {
                tid: Tid(1),
                ret: OpRet::Stat(atomfs_trace::StatRet {
                    is_dir: false,
                    size: 0,
                }),
            },
        ]);
        assert!(check_linearizable(&h).is_err());
    }

    #[test]
    fn figure_1_history_is_linearizable_with_right_order() {
        // rename(/a, /e) overlaps mkdir(/a/b/c); both succeed. The only
        // legal order puts the mkdir first — exactly what helping achieves.
        let mut setup = vec![];
        for (t, p) in [(9, vec!["a"]), (9, vec!["a", "b"])] {
            setup.push(HEvent::Inv {
                tid: Tid(t),
                op: OpDesc::Mkdir {
                    path: p.iter().map(|s| s.to_string()).collect(),
                },
            });
            setup.push(HEvent::Res {
                tid: Tid(t),
                ret: OpRet::Ok,
            });
        }
        let mut events = setup;
        events.extend(vec![
            HEvent::Inv {
                tid: Tid(2),
                op: OpDesc::Mkdir {
                    path: comps(&["a", "b", "c"]),
                },
            },
            HEvent::Inv {
                tid: Tid(1),
                op: OpDesc::Rename {
                    src: comps(&["a"]),
                    dst: comps(&["e"]),
                },
            },
            HEvent::Res {
                tid: Tid(1),
                ret: OpRet::Ok,
            },
            HEvent::Res {
                tid: Tid(2),
                ret: OpRet::Ok,
            },
        ]);
        let w = check_linearizable(&hist(events)).unwrap();
        // mkdir(/a/b/c) must be ordered before rename(/a, /e).
        let pos_mkdir = w
            .iter()
            .position(|(t, _, _)| *t == Tid(2))
            .expect("mkdir in witness");
        let pos_rename = w
            .iter()
            .position(|(t, _, _)| *t == Tid(1))
            .expect("rename in witness");
        assert!(pos_mkdir < pos_rename);
    }

    #[test]
    fn figure_1_wrong_returns_not_linearizable() {
        // Same interleaving but mkdir claims success AFTER observing the
        // renamed tree (i.e. rename first, then mkdir succeeds) — illegal.
        let events = vec![
            HEvent::Inv {
                tid: Tid(1),
                op: OpDesc::Rename {
                    src: comps(&["a"]),
                    dst: comps(&["e"]),
                },
            },
            HEvent::Res {
                tid: Tid(1),
                ret: OpRet::Ok, // but /a never existed!
            },
        ];
        assert!(check_linearizable(&hist(events)).is_err());
    }

    #[test]
    fn real_time_order_is_respected() {
        // mkdir(/x) completes BEFORE stat(/x) begins, and the stat fails —
        // not linearizable because real-time order forces mkdir first.
        let h = hist(vec![
            HEvent::Inv {
                tid: Tid(1),
                op: OpDesc::Mkdir {
                    path: comps(&["x"]),
                },
            },
            HEvent::Res {
                tid: Tid(1),
                ret: OpRet::Ok,
            },
            HEvent::Inv {
                tid: Tid(2),
                op: OpDesc::Stat {
                    path: comps(&["x"]),
                },
            },
            HEvent::Res {
                tid: Tid(2),
                ret: OpRet::Err(FsError::NotFound),
            },
        ]);
        assert!(check_linearizable(&h).is_err());
        // But if they overlap, the failure is legal (stat first).
        let h = hist(vec![
            HEvent::Inv {
                tid: Tid(2),
                op: OpDesc::Stat {
                    path: comps(&["x"]),
                },
            },
            HEvent::Inv {
                tid: Tid(1),
                op: OpDesc::Mkdir {
                    path: comps(&["x"]),
                },
            },
            HEvent::Res {
                tid: Tid(1),
                ret: OpRet::Ok,
            },
            HEvent::Res {
                tid: Tid(2),
                ret: OpRet::Err(FsError::NotFound),
            },
        ]);
        assert!(check_linearizable(&h).is_ok());
    }

    #[test]
    fn incomplete_history_rejected() {
        let h = hist(vec![HEvent::Inv {
            tid: Tid(1),
            op: OpDesc::Stat { path: vec![] },
        }]);
        assert!(check_linearizable(&h).is_err());
    }
}
