//! The `Value`-tree log replay [`super::replay`] replaced, kept as the
//! oracle its differential tests compare against.

use std::collections::BTreeMap;

use serde_json::Value;

use super::{Cell, CellState, Replayed, RunSummary};
use crate::hash::CellId;

/// Replays `bytes` line by line through [`replay_line`].
pub(super) fn replay(bytes: &[u8]) -> Replayed {
    let mut cells = BTreeMap::new();
    let mut runs = Vec::new();
    let mut clean_end = 0usize;
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        let Some(line) = line.strip_suffix(b"\n") else {
            break;
        };
        if !replay_line(line, &mut cells, &mut runs) {
            break;
        }
        clean_end += line.len() + 1;
    }
    Replayed {
        cells,
        runs,
        clean_end,
    }
}

/// Applies one complete log line; `false` marks it corrupt.
fn replay_line(
    line: &[u8],
    cells: &mut BTreeMap<CellId, Cell>,
    runs: &mut Vec<RunSummary>,
) -> bool {
    let Ok(text) = std::str::from_utf8(line) else {
        return false;
    };
    let Ok(v) = serde_json::from_str::<Value>(text) else {
        return false;
    };
    let Some(op) = v["op"].as_str() else {
        return false;
    };
    if op == "run" {
        let (Some(hits), Some(misses)) = (v["hits"].as_u64(), v["misses"].as_u64()) else {
            return false;
        };
        runs.push(RunSummary {
            hits: hits as usize,
            misses: misses as usize,
        });
        return true;
    }
    let Some(cell) = v["cell"].as_str() else {
        return false;
    };
    match op {
        "pending" => {
            let Some(key) = v["key"].as_str() else {
                return false;
            };
            // Re-registering is a retry: done cells stay done.
            let entry = cells.entry(cell.to_owned()).or_insert_with(|| Cell {
                key: key.to_owned(),
                state: CellState::Pending,
            });
            if !matches!(entry.state, CellState::Done { .. }) {
                entry.state = CellState::Pending;
            }
            true
        }
        "running" => match cells.get_mut(cell) {
            Some(c) => {
                if !matches!(c.state, CellState::Done { .. }) {
                    c.state = CellState::Running;
                }
                true
            }
            None => false,
        },
        "done" => {
            let (Some(wall_ms), Some(payload)) = (v["wall_ms"].as_f64(), v["payload"].as_str())
            else {
                return false;
            };
            let attempts = v["attempts"].as_u64().unwrap_or(1) as u32;
            match cells.get_mut(cell) {
                Some(c) => {
                    c.state = CellState::Done {
                        wall_ms,
                        payload: payload.to_owned(),
                        attempts,
                    };
                    true
                }
                None => false,
            }
        }
        "failed" => {
            let Some(error) = v["error"].as_str() else {
                return false;
            };
            let attempts = v["attempts"].as_u64().unwrap_or(1) as u32;
            match cells.get_mut(cell) {
                Some(c) => {
                    if !matches!(c.state, CellState::Done { .. }) {
                        c.state = CellState::Failed {
                            error: error.to_owned(),
                            attempts,
                        };
                    }
                    true
                }
                None => false,
            }
        }
        _ => false,
    }
}
