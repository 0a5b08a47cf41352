//! Offline functional stand-in for `criterion` 0.5: compiles the bench
//! targets and runs each benchmark a handful of times printing rough
//! timings (no statistics, no reports).

use std::time::{Duration, Instant};

pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        Self(format!("{name}/{param}"))
    }

    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        Self(param.to_string())
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

pub struct Bencher {
    iters: u64,
    elapsed_ns: f64,
}

impl Bencher {
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed_ns = start.elapsed().as_nanos() as f64;
    }

    /// Time `routine` on fresh inputs from `setup`; only the routine is
    /// timed. The stand-in builds one input per iteration whatever the
    /// `BatchSize`.
    pub fn iter_batched<I, O, S: FnMut() -> I, R: FnMut(I) -> O>(
        &mut self,
        mut setup: S,
        mut routine: R,
        _size: BatchSize,
    ) {
        let mut elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            let output = black_box(routine(input));
            elapsed += start.elapsed();
            drop(output);
        }
        self.elapsed_ns = elapsed.as_nanos() as f64;
    }
}

/// How many inputs `Bencher::iter_batched` prepares at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
    NumBatches(u64),
    NumIterations(u64),
}

#[derive(Default)]
pub struct Criterion {
    _sample_size: usize,
}

impl Criterion {
    pub fn sample_size(mut self, n: usize) -> Self {
        self._sample_size = n;
        self
    }

    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            _parent: self,
        }
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl std::fmt::Display, f: F) {
        run_bench(&id.to_string(), f);
    }
}

pub struct BenchmarkGroup<'a> {
    name: String,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl std::fmt::Display, f: F) {
        run_bench(&format!("{}/{}", self.name, id), f);
    }

    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: impl std::fmt::Display,
        input: &I,
        mut f: F,
    ) {
        run_bench(&format!("{}/{}", self.name, id), |b| f(b, input));
    }

    pub fn finish(self) {}
}

fn run_bench<F: FnMut(&mut Bencher)>(label: &str, mut f: F) {
    let mut b = Bencher {
        iters: 1,
        elapsed_ns: 0.0,
    };
    // Warm-up + calibration: target ~30ms per benchmark.
    f(&mut b);
    let per_iter = b.elapsed_ns.max(1.0);
    b.iters = ((30.0e6 / per_iter) as u64).clamp(1, 1000);
    f(&mut b);
    println!(
        "bench {label}: {:.0} ns/iter ({} iters)",
        b.elapsed_ns / b.iters as f64,
        b.iters
    );
}

#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $cfg;
            $( $target(&mut c); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
