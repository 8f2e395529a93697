//! Span recorder for traced runs.
//!
//! A span is opened around one call into a layer's public function and
//! closed when its guard drops. Spans carry a name, start and end (ns
//! since the run began), the span that encloses them (their parent: the
//! span open on the same thread, or one handed over from another thread)
//! and one id per circuit or request. They are kept in memory and written
//! out when the run ends. With tracing off, [`span`] costs one relaxed
//! atomic load and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in order of opening.
    pub index: usize,
    /// Layer name, e.g. `evolution.optimize`.
    pub name: &'static str,
    /// Circuit or request id the span belongs to.
    pub id: u64,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);

struct Recorder {
    epoch: Instant,
    /// Spans by opening index; `None` while still open.
    spans: Mutex<Vec<Option<Span>>>,
}

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    recorder();
    ENABLED.store(true, Ordering::Relaxed);
}

/// Open span; records its end when dropped.
#[must_use = "a span ends when its guard drops"]
pub struct Guard {
    open: Option<(usize, &'static str, u64, u64, Option<usize>)>,
}

/// Opens a span named `name` for circuit or request `id`, nested in the
/// span open on this thread.
pub fn span(name: &'static str, id: u64) -> Guard {
    span_under(name, id, current())
}

/// The span open on this thread, to hand to [`span_under`] on another.
#[must_use]
pub fn current() -> Option<usize> {
    STACK.with(|s| s.borrow().last().copied())
}

/// Opens a span with an explicit parent (a span of another thread), or
/// nested in this thread's open span when `parent` is `None`.
pub fn span_under(name: &'static str, id: u64, parent: Option<usize>) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let rec = recorder();
    let start_ns = rec.epoch.elapsed().as_nanos() as u64;
    let parent = parent.or_else(current);
    let index = {
        let mut spans = rec.spans.lock().expect("span list lock is never poisoned");
        spans.push(None);
        spans.len() - 1
    };
    STACK.with(|s| s.borrow_mut().push(index));
    Guard {
        open: Some((index, name, id, start_ns, parent)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((index, name, id, start_ns, parent)) = self.open.take() else {
            return;
        };
        let rec = recorder();
        let end_ns = rec.epoch.elapsed().as_nanos() as u64;
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last() == Some(&index) {
                s.pop();
            }
        });
        if let Ok(mut spans) = rec.spans.lock() {
            spans[index] = Some(Span {
                index,
                name,
                id,
                start_ns,
                end_ns,
                parent,
            });
        }
    }
}

/// Every closed span, in opening order.
#[must_use]
pub fn spans() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .expect("span list lock is never poisoned")
        .iter()
        .flatten()
        .cloned()
        .collect()
}

/// Self time per span: its duration minus the part of it that its direct
/// children cover. Children on other threads may overlap, so the covered
/// part is the union of their intervals.
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let pos: BTreeMap<usize, usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.index, i))
        .collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| pos.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Name of the outermost span enclosing each span (itself if a root).
#[must_use]
pub fn roots(spans: &[Span]) -> Vec<&'static str> {
    let pos: BTreeMap<usize, usize> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| (s.index, i))
        .collect();
    spans
        .iter()
        .map(|s| {
            let mut cur = s;
            while let Some(p) = cur.parent.and_then(|p| pos.get(&p)) {
                cur = &spans[*p];
            }
            cur.name
        })
        .collect()
}

/// Spans as JSON lines, each with its self time (`self_ns`).
#[must_use]
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"span\":{},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{}}}\n",
            s.index, s.name, s.id, s.start_ns, s.end_ns, parent
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(index: usize, name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            index,
            name,
            id: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            mk(0, "round", 0, 100, None),
            mk(1, "a", 10, 50, Some(0)),
            mk(2, "b", 20, 30, Some(1)),
            mk(3, "c", 60, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 10, 30]);
        assert_eq!(roots(&spans), vec!["round"; 4]);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            mk(0, "round", 0, 100, None),
            mk(1, "client", 0, 80, Some(0)),
            mk(2, "client", 10, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }
}
