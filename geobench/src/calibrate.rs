//! The host's speed while the benchmark runs, read from a fixed reference
//! loop, and the timings scaled by it.
//!
//! On a shared VM the same code runs up to ~35 % slower for seconds at a
//! time when other tenants load the host's cores, and the CPU time of the
//! process slows with it, so neither wall nor CPU time repeats from run to
//! run. The benchmark therefore times a fixed loop of its own on the core
//! that runs the work: on a background thread every few milliseconds, and
//! right before and after every timed operation. Each operation's wall time
//! is scaled by the loop's speed over that operation, to the time it takes
//! on a host where the loop takes [`NOMINAL_S`]. No change to the program
//! touches the loop, so a faster program still reads faster.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Random reads and writes in a 512 KiB table mixed with the floating-point
/// math (logarithm, sine, square root) that location noise and distance
/// metrics spend their time in.
struct Reference {
    table: Vec<u64>,
    state: u64,
    sink: f64,
}

const TABLE: usize = 1 << 16;
const ROUNDS: usize = 5_000;

impl Reference {
    fn new() -> Reference {
        Reference { table: vec![1; TABLE], state: 0x9E37_79B9_7F4A_7C15, sink: 0.0 }
    }

    fn run(&mut self) {
        let mut x = self.state;
        let mut acc = 0.0f64;
        for _ in 0..ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (TABLE - 1);
            self.table[slot] = self.table[slot].wrapping_add(x);
            let read = self.table[(x >> 20) as usize & (TABLE - 1)];
            let u = ((read >> 11) as f64 + 1.0) * (1.0 / 9_007_199_254_740_992.0);
            acc += -u.ln() * (u * std::f64::consts::TAU).sin() + u.sqrt();
        }
        self.state = x;
        self.sink = std::hint::black_box(self.sink + acc);
    }
}

/// The loop's time on the host the scaled timings refer to: a 2-core Intel
/// Xeon VM with its cores to itself.
pub const NOMINAL_S: f64 = 0.33e-3;

/// Pause between two samples: with two passes of ≈0.35 ms per sample the
/// sampler keeps about 3 % of one core busy.
const PERIOD: Duration = Duration::from_millis(20);

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, now: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Binds the calling thread, and every thread it starts afterwards, to the
/// highest-numbered core it may run on, and returns that core.
///
/// The work and the sampler then share one core, so the sampler reads the
/// speed of the core the work runs on; the other cores stay free for the
/// rest of the system.
pub fn pin_to_one_core() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".to_string());
    }
    let core = (0..mask.len() * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0u64; 16];
    one[core / 64] = 1 << (core % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes, and pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to core {core} failed"));
    }
    Ok(core)
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, in seconds. It leaves out time the
/// thread waited for a CPU, so a pass that is preempted still reads the
/// speed of the core, not the length of the queue.
fn thread_cpu_seconds() -> f64 {
    let mut now = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `now` is a valid, writable timespec for the call's duration,
    // and the clock id is a constant Linux defines for every thread.
    let status = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut now) };
    if status == 0 {
        now.tv_sec as f64 + now.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Times one pass of the loop, after an untimed pass that brings its table
/// back into cache, in CPU seconds of the calling thread.
fn sample(reference: &mut Reference) -> f64 {
    reference.run();
    let cpu = thread_cpu_seconds();
    reference.run();
    thread_cpu_seconds() - cpu
}

/// Passes of the loop: when each started, in seconds since the sampler
/// started, and its CPU seconds.
type Passes = Arc<Mutex<Vec<(f64, f64)>>>;

/// Times the reference loop on a background thread every [`PERIOD`], and on
/// the calling thread right before and after each timed operation, so that
/// a short operation has passes next to it. Dropping it stops and joins the
/// thread.
pub struct Sampler {
    origin: Instant,
    stop: Arc<AtomicBool>,
    passes: Passes,
    local: Mutex<Reference>,
    worker: Option<JoinHandle<()>>,
}

impl Sampler {
    pub fn start() -> Sampler {
        let origin = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let passes: Passes = Arc::new(Mutex::new(Vec::new()));
        let (flag, shared) = (Arc::clone(&stop), Arc::clone(&passes));
        let worker = std::thread::spawn(move || {
            let mut reference = Reference::new();
            while !flag.load(Ordering::SeqCst) {
                let at = origin.elapsed().as_secs_f64();
                let pass = sample(&mut reference);
                shared.lock().expect("no pass recorder panics").push((at, pass));
                std::thread::sleep(PERIOD);
            }
        });
        Sampler { origin, stop, passes, local: Mutex::new(Reference::new()), worker: Some(worker) }
    }

    /// Seconds since the sampler started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Times one pass of the loop on the calling thread.
    pub fn mark(&self) {
        let at = self.now();
        let pass = sample(&mut self.local.lock().expect("no pass recorder panics"));
        self.passes.lock().expect("no pass recorder panics").push((at, pass));
    }

    /// Times `f` between two passes of the loop, returning its result with
    /// its interval.
    pub fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, Timed) {
        self.mark();
        let from = self.now();
        let value = f();
        let to = self.now();
        self.mark();
        (value, Timed { from, to })
    }

    /// Stops the thread and returns the loop's speed over the run.
    pub fn finish(mut self) -> Result<Speed, String> {
        self.stop.store(true, Ordering::SeqCst);
        let worker = self.worker.take().ok_or("the sampler was already stopped")?;
        worker.join().map_err(|_| "the sampler thread panicked".to_string())?;
        let mut passes =
            std::mem::take(&mut *self.passes.lock().map_err(|_| "a pass recorder panicked")?);
        if passes.is_empty() {
            return Err("the sampler timed no pass".to_string());
        }
        passes.sort_by(|a, b| a.0.total_cmp(&b.0));
        Ok(Speed { passes })
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// The interval of one timed operation, in seconds since the sampler
/// started.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub from: f64,
    pub to: f64,
}

impl Timed {
    pub fn wall(&self) -> f64 {
        self.to - self.from
    }
}

/// Every pass of the loop: when it started and its CPU seconds.
pub struct Speed {
    passes: Vec<(f64, f64)>,
}

impl Speed {
    /// The mean pass time over an interval, widened to the passes on either
    /// side so that a short interval still has some.
    fn pass_over(&self, from: f64, to: f64) -> f64 {
        let first = self.passes.partition_point(|(at, _)| *at < from).saturating_sub(1);
        let last = self.passes.partition_point(|(at, _)| *at <= to).min(self.passes.len() - 1);
        let window = &self.passes[first..=last.max(first)];
        window.iter().map(|(_, pass)| pass).sum::<f64>() / window.len() as f64
    }

    /// What scales a time measured over the interval to the nominal host.
    pub fn factor(&self, timed: &Timed) -> f64 {
        NOMINAL_S / self.pass_over(timed.from, timed.to)
    }

    /// An interval's wall seconds, scaled to the nominal host.
    pub fn scaled(&self, timed: &Timed) -> f64 {
        timed.wall() * self.factor(timed)
    }

    /// The median pass time of the run, in seconds.
    pub fn median_pass(&self) -> f64 {
        crate::report::median(&self.passes.iter().map(|(_, pass)| *pass).collect::<Vec<_>>())
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }
}
