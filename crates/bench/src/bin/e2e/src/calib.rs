//! The calibration kernel and the quiet-floor estimator built on it.
//!
//! On a shared virtual machine the same code runs at full speed for a
//! while and a third slower the next second, and short bursts come on
//! top. The benchmark therefore times work in *slices*: one run of a
//! fixed kernel, then one chunk of requests on the same thread. A
//! chunk's timings are divided by the fastest of the kernel runs
//! around it, which expresses them as time on a machine whose kernel
//! run takes exactly [`NOMINAL_NS`] and takes out whatever state the
//! host was in during that slice. A pass cycles through the pool, so
//! every *slot* (a chunk of consecutive requests for costs, a single
//! request for latencies) is timed once per cycle; what is reported
//! for a slot is the floor of its calibrated timings, a low quantile
//! that sits under the bursts. README.md has the measurements behind
//! this.

use crate::stats::LOW_Q;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's quiet run time on the reference machine: calibrated
/// values are scaled so that it takes exactly this long.
pub const NOMINAL_NS: f64 = 200_000.0;

/// Synthetic requests per kernel run (each line of the kernel's pool
/// three times): about a fifth of a millisecond on the machine the
/// benchmark was defined on. Fixed, like everything else about the
/// kernel: changing it rescales every calibrated metric.
const LINES: usize = 64;
const REQUESTS_PER_RUN: usize = 3 * LINES;
/// The kernel's automaton: 512 states by 64 byte classes of `u16`,
/// 64 KiB, the order of the program's lazy-DFA tables.
const STATES: usize = 512;
const CLASSES: usize = 64;
/// Its model: 9 logistic scores over 160 counts, the program's shape.
const COUNTS: usize = 160;
const SCORES: usize = 9;

/// A miniature of the request path that shares no code with the
/// program: split a request line into owned strings, percent-decode
/// and lower-case the query, walk a table-driven automaton over it
/// while counting, and take logistic scores of the counts. What slows
/// request work on a busy host (a neighbour on the sibling hardware
/// thread, evicted caches, the allocator's cache lines) slows this by
/// nearly the same factor; a tight arithmetic loop, the first kernel
/// tried, slowed by 9 % while requests slowed by 29 %.
pub struct Kernel {
    lines: Vec<Vec<u8>>,
    automaton: Vec<u16>,
    weights: Vec<f64>,
    /// Run time of every calibration so far, in ns.
    runs: RefCell<Vec<f64>>,
}

impl Kernel {
    pub fn new() -> Kernel {
        const WORDS: [&str; 20] = [
            "select", "page", "id", "union", "sort", "asc", "q", "housing", "summer", "user",
            "from", "where", "name", "1", "20", "300", "x%27", "a+b", "%2F", "or",
        ];
        // A fixed xorshift stream: the same kernel on every run.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let lines = {
            let mut word = || WORDS[(next() % WORDS.len() as u64) as usize];
            (0..LINES)
                .map(|i| {
                    let mut line = format!("GET /app/{}.php?", word());
                    for k in 0..2 + i % 4 {
                        let separator = if k > 0 { "&" } else { "" };
                        line += &format!("{separator}{}={}+{}", word(), word(), word());
                    }
                    line += &format!(" HTTP/1.1\r\nHost: {}.example\r\n\r\n", word());
                    line.into_bytes()
                })
                .collect()
        };
        let automaton = (0..STATES * CLASSES)
            .map(|_| (next() % STATES as u64) as u16)
            .collect();
        let weights = (0..SCORES * COUNTS)
            .map(|_| (next() % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        Kernel {
            lines,
            automaton,
            weights,
            runs: RefCell::new(Vec::new()),
        }
    }

    fn work(&self) -> f64 {
        let hex = |c: u8| (c as char).to_digit(16).unwrap_or(0) as u8;
        let mut total = 0.0;
        let mut counts = vec![0.0f64; COUNTS];
        let mut decoded: Vec<u8> = Vec::new();
        for i in 0..REQUESTS_PER_RUN {
            // Parse: request line and Host header into owned strings.
            let text = String::from_utf8_lossy(&self.lines[i % LINES]);
            let mut parts = text.split_whitespace();
            let method = parts.next().unwrap_or("").to_string();
            let target = parts.next().unwrap_or("");
            let (path, query) = target.split_once('?').unwrap_or((target, ""));
            let (path, query) = (path.to_string(), query.to_string());
            let host = text.lines().nth(1).unwrap_or("");
            let host = host.trim_start_matches("Host:").trim().to_string();
            // Normalize: percent-decode, plus to space, lower-case.
            decoded.clear();
            let raw = query.as_bytes();
            let mut at = 0;
            while at < raw.len() {
                if raw[at] == b'%' && at + 2 < raw.len() {
                    decoded.push(hex(raw[at + 1]) * 16 + hex(raw[at + 2]));
                    at += 3;
                } else {
                    let byte = raw[at];
                    decoded.push(if byte == b'+' {
                        b' '
                    } else {
                        byte.to_ascii_lowercase()
                    });
                    at += 1;
                }
            }
            // Scan: one table lookup per byte, counting visits.
            counts.fill(0.0);
            let mut state = 0usize;
            for &byte in &decoded {
                state = usize::from(self.automaton[state * CLASSES + usize::from(byte) % CLASSES]);
                if state < COUNTS {
                    counts[state] += 1.0;
                }
            }
            // Score: logistic of one dot product per signature.
            for weights in self.weights.chunks(COUNTS) {
                let z: f64 = weights.iter().zip(&counts).map(|(w, c)| w * c).sum();
                total += 1.0 / (1.0 + (-z).exp());
            }
            black_box((&method, &path, &host));
        }
        total
    }

    /// Runs the kernel once, logs its time and returns it in ns.
    pub fn run(&self) -> f64 {
        let start = Instant::now();
        black_box(self.work());
        let ns = start.elapsed().as_nanos() as f64;
        self.runs.borrow_mut().push(ns);
        ns
    }

    /// How many runs the kernel has made; with [`Kernel::spent_since`],
    /// what a pass spent calibrating.
    pub fn mark(&self) -> usize {
        self.runs.borrow().len()
    }

    /// Total ns of the runs made since `mark`.
    pub fn spent_since(&self, mark: usize) -> f64 {
        self.runs.borrow()[mark..].iter().sum()
    }

    /// Every calibration run so far, in ns: the machine-speed
    /// fingerprint of this invocation.
    pub fn runs(&self) -> Vec<f64> {
        self.runs.borrow().clone()
    }
}

/// The slices of one pass: alternates kernel runs with the caller's
/// chunks and hands each chunk's measurements back together with its
/// scale once the kernel run after it is known.
pub struct Slices<'k, T> {
    kernel: &'k Kernel,
    /// The two latest kernel runs, in ns.
    recent: [f64; 2],
    held: Option<T>,
}

impl<'k, T> Slices<'k, T> {
    pub fn new(kernel: &'k Kernel) -> Slices<'k, T> {
        Slices {
            kernel,
            recent: [f64::INFINITY; 2],
            held: None,
        }
    }

    /// Runs the kernel. If a chunk's measurements are held, returns
    /// them with the factor that converts their wall-clock times into
    /// calibrated time: [`NOMINAL_NS`] over the fastest of the run just
    /// made, the run before the chunk and the run before that. One
    /// run caught in a burst thus spoils nothing.
    pub fn calibrate(&mut self) -> Option<(T, f64)> {
        let ns = self.kernel.run();
        let fastest = ns.min(self.recent[0]).min(self.recent[1]);
        self.recent = [self.recent[1], ns];
        self.held.take().map(|held| (held, NOMINAL_NS / fastest))
    }

    /// Holds the measurements of the chunk just run until the next
    /// [`Slices::calibrate`].
    pub fn hold(&mut self, measurements: T) {
        self.held = Some(measurements);
    }
}

/// Values kept per slot: enough for the [`LOW_Q`] quantile of up to
/// `KEPT / LOW_Q` repeats, beyond which the quantile only gets lower.
const KEPT: usize = 8;

#[derive(Clone, Copy, Default)]
struct Slot {
    /// The smallest values seen, ascending.
    smallest: [f64; KEPT],
    seen: u32,
}

/// The floor of repeated timings, per slot, in bounded memory.
#[derive(Clone, Default)]
pub struct Floors {
    slots: Vec<Slot>,
}

impl Floors {
    pub fn new(slots: usize) -> Floors {
        Floors {
            slots: vec![Slot::default(); slots],
        }
    }

    /// Adds one more timing of `slot`.
    pub fn push(&mut self, slot: usize, value: f64) {
        let s = &mut self.slots[slot];
        let kept = (s.seen as usize).min(KEPT);
        s.seen += 1;
        if kept == KEPT && value >= s.smallest[KEPT - 1] {
            return;
        }
        // Insertion into the sorted prefix, dropping the largest when
        // the prefix is full.
        let mut i = kept.min(KEPT - 1);
        while i > 0 && s.smallest[i - 1] > value {
            s.smallest[i] = s.smallest[i - 1];
            i -= 1;
        }
        s.smallest[i] = value;
    }

    /// The [`LOW_Q`] quantile of the slot's timings: low enough to sit
    /// under the bursts, not the single luckiest repeat once there are
    /// fifty. `None` for a slot never timed.
    pub fn floor(&self, slot: usize) -> Option<f64> {
        let s = &self.slots[slot];
        let index = ((f64::from(s.seen) * LOW_Q) as usize).min(KEPT - 1);
        (s.seen > 0).then(|| s.smallest[index])
    }

    /// The floor of every slot that was timed, in slot order.
    pub fn floors(&self) -> Vec<f64> {
        (0..self.slots.len())
            .filter_map(|slot| self.floor(slot))
            .collect()
    }

    /// Mean of the slots' floors: every slot weighs the same however
    /// often it was timed. 0 when nothing was.
    pub fn mean(&self) -> f64 {
        let floors = self.floors();
        floors.iter().sum::<f64>() / floors.len().max(1) as f64
    }

    /// Timings pushed so far, over all slots.
    pub fn seen(&self) -> u64 {
        self.slots.iter().map(|s| u64::from(s.seen)).sum()
    }
}

/// A cost pass: calibrated ns per item by pool segment, and the raw
/// wall-clock figures of the same slices.
#[derive(Default)]
pub struct Timed {
    pub cost: Floors,
    /// Every slice's raw ns per item, for the record's quartiles.
    pub slices: Vec<f64>,
    pub raw_ns: f64,
    pub items: u64,
}

impl Timed {
    pub fn new(segments: usize) -> Timed {
        Timed {
            cost: Floors::new(segments),
            ..Timed::default()
        }
    }

    /// Adds one slice: the `items` operations of `segment` took
    /// `chunk_ns` of wall-clock time at `scale`.
    pub fn push(&mut self, segment: usize, chunk_ns: f64, items: u64, scale: f64) {
        self.cost.push(segment, chunk_ns / items as f64 * scale);
        self.slices.push(chunk_ns / items as f64);
        self.raw_ns += chunk_ns;
        self.items += items;
    }

    /// Calibrated ns per item.
    pub fn calibrated(&self) -> f64 {
        self.cost.mean()
    }

    /// Items per second of raw wall-clock time, noise and all.
    pub fn raw_rate(&self) -> f64 {
        if self.raw_ns == 0.0 {
            0.0
        } else {
            self.items as f64 * 1e9 / self.raw_ns
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_the_same_work_every_time() {
        let a = Kernel::new();
        let b = Kernel::new();
        assert_eq!(a.lines, b.lines);
        assert_eq!(a.automaton, b.automaton);
        assert_eq!(a.work().to_bits(), b.work().to_bits());
        assert_eq!(a.lines.len(), LINES);
        let first = String::from_utf8(a.lines[0].clone()).unwrap();
        assert!(
            first.starts_with("GET /app/") && first.ends_with("\r\n\r\n"),
            "{first}"
        );
        assert!(first.contains('?') && first.contains("Host: "), "{first}");
    }

    #[test]
    fn floor_is_the_minimum_until_fifty_repeats_then_the_low_quantile() {
        let mut f = Floors::new(2);
        assert_eq!(f.floor(0), None);
        for v in [7.0, 5.0, 9.0] {
            f.push(0, v);
        }
        assert_eq!(f.floor(0), Some(5.0));
        // 150 repeats, pushed in descending order: index 3 of the
        // sorted values, so three lucky repeats do not decide it.
        for v in (0..150).rev() {
            f.push(1, f64::from(v));
        }
        assert_eq!(f.floor(1), Some(3.0));
        assert_eq!(f.seen(), 153);
        assert_eq!(f.floors(), [5.0, 3.0]);
    }

    #[test]
    fn floor_matches_a_full_sort_whatever_the_order() {
        let mut state = 12345u64;
        let values: Vec<f64> = (0..333)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 40) as f64
            })
            .collect();
        let mut f = Floors::new(1);
        for &v in &values {
            f.push(0, v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable_by(f64::total_cmp);
        assert_eq!(f.floor(0), Some(sorted[(333.0 * LOW_Q) as usize]));
    }

    #[test]
    fn floors_ignore_bursts_and_slots_weigh_the_same() {
        let mut f = Floors::new(3);
        // Slot 0 costs 100 when quiet and slot 2 costs 300; most
        // repeats of either ran into a burst; slot 1 was never timed.
        for burst in [0.0, 80.0, 900.0, 40.0, 0.0, 250.0] {
            f.push(0, 100.0 + burst);
            f.push(2, 300.0 + burst);
        }
        f.push(2, 301.0);
        assert_eq!(f.mean(), 200.0);
        assert_eq!(Floors::new(4).mean(), 0.0);
    }

    #[test]
    fn calibration_divides_out_machine_speed() {
        // The same slice on a machine half as fast: the chunk takes
        // twice as long and so does the kernel.
        let slice = |slowdown: f64| {
            let mut timed = Timed::new(1);
            let scale = NOMINAL_NS / (2.0 * NOMINAL_NS * slowdown);
            timed.push(0, 400_000.0 * slowdown, 250, scale);
            timed
        };
        assert_eq!(slice(1.0).calibrated(), 800.0);
        assert_eq!(slice(2.0).calibrated(), 800.0);
        assert_eq!(slice(2.0).raw_rate(), 312_500.0);
    }

    #[test]
    fn slices_hand_back_each_chunk_after_the_next_kernel_run() {
        let kernel = Kernel::new();
        let mut slices: Slices<&str> = Slices::new(&kernel);
        assert!(slices.calibrate().is_none(), "nothing held yet");
        slices.hold("first chunk");
        let (held, scale) = slices.calibrate().expect("first chunk is due");
        assert_eq!(held, "first chunk");
        // The scale comes from the fastest of the runs so far.
        let fastest = kernel.runs().into_iter().fold(f64::INFINITY, f64::min);
        assert_eq!(scale, NOMINAL_NS / fastest);
        assert!(slices.calibrate().is_none(), "handed back once");
        assert_eq!(kernel.runs().len(), 3);
    }
}
