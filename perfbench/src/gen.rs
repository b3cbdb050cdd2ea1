//! Seeded input generators.
//!
//! Every workload draws from a fixed population of distinct specs, so the
//! same plans are selected on every run and `planned_samples_per_s_geomean`
//! is exact. The seed drives everything else: request order, the Zipf
//! shuffle and the fault parameters. The program only ever sees the bytes
//! these functions return.

/// SplitMix64: tiny, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`, rounded to two decimals so the generated
    /// JSON stays short and exact.
    pub fn centi(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + (hi - lo) * u) * 100.0).round() / 100.0
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The model zoo, every entry of which some workload plans.
pub const ZOO: [&str; 7] = [
    "sd",
    "controlnet",
    "cdm-lsun",
    "cdm-imagenet",
    "dit",
    "sdxl",
    "imagen",
];

/// A cluster: a count of A100-class machines or a mixed fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fleet {
    Machines(usize),
    Mixed(&'static str),
}

/// One `PlanSpec` document, using the schema's shorthands (zoo name as a
/// string, class list as a string); 8 GPUs per machine throughout.
pub fn plan_spec(model: &str, fleet: Fleet, batch: u32) -> String {
    let cluster = match fleet {
        Fleet::Machines(n) => format!("{{\"machines\":{n},\"devices_per_machine\":8}}"),
        Fleet::Mixed(classes) => {
            format!("{{\"machine_classes\":\"{classes}\",\"devices_per_machine\":8}}")
        }
    };
    format!(
        "{{\"schema_version\":1,\"model\":\"{model}\",\"cluster\":{cluster},\"global_batch\":{batch}}}"
    )
}

/// cli_plan: every zoo model on 1 to 8 machines, mixed a100/h100 fleets
/// included, at several batches. 70 specs, so plan costs (3 to 95 ms on a
/// 2-vCPU box) are dense around the median.
pub fn cli_specs() -> Vec<String> {
    let shapes = [
        (Fleet::Machines(1), 128),
        (Fleet::Machines(2), 64),
        (Fleet::Machines(3), 512),
        (Fleet::Machines(4), 256),
        (Fleet::Machines(5), 128),
        (Fleet::Machines(6), 1024),
        (Fleet::Machines(8), 256),
        (Fleet::Mixed("a100:2,h100:2"), 1024),
        (Fleet::Mixed("a100:4,h100:4"), 256),
        (Fleet::Mixed("h100:3"), 512),
    ];
    ZOO.iter()
        .flat_map(|m| shapes.iter().map(move |&(f, b)| plan_spec(m, f, b)))
        .collect()
}

/// Plan-cache capacity the zipf_mix server runs with.
pub const ZIPF_CAPACITY: usize = 64;
/// Distinct specs in the zipf_mix population (three times the capacity).
pub const ZIPF_POPULATION: usize = 192;
/// Zipf exponent and rank-1 count of one zipf_mix block.
const ZIPF_S: f64 = 1.3;
const ZIPF_TOP: f64 = 250.0;

/// zipf_mix: 192 distinct specs in a fixed rank order (a fixed shuffle, not
/// the run seed, so the hot specs are the same on every run). The
/// two-backbone CDMs are left out: a miss on one costs 5 to 10 times
/// another model's, and which mid-rank specs miss depends on the order.
pub fn zipf_specs() -> Vec<String> {
    let fleets = [
        Fleet::Machines(1),
        Fleet::Machines(2),
        Fleet::Machines(3),
        Fleet::Machines(4),
        Fleet::Machines(6),
        Fleet::Mixed("a100:1,h100:1"),
        Fleet::Mixed("a100:2,h100:1"),
        Fleet::Mixed("h100:2"),
    ];
    let mut all: Vec<String> = ["sd", "controlnet", "dit", "sdxl", "imagen"]
        .iter()
        .flat_map(|m| {
            fleets.iter().flat_map(move |&f| {
                [64u32, 128, 256, 512, 1024]
                    .into_iter()
                    .map(move |b| plan_spec(m, f, b))
            })
        })
        .collect();
    Rng::new(0x005E_ED0F_21FF).shuffle(&mut all);
    all.truncate(ZIPF_POPULATION);
    all
}

/// Requests of rank `k` (0-based) in one zipf_mix block: at least one, so
/// every spec of the population is drawn in every block.
pub fn zipf_count(rank: usize) -> usize {
    (ZIPF_TOP / ((rank + 1) as f64).powf(ZIPF_S))
        .round()
        .max(1.0) as usize
}

/// The draw: a warm block of the `ZIPF_CAPACITY` hottest specs in seeded
/// order (set-up replays it to fill the cache), then `blocks` back-to-back
/// blocks, each a seeded shuffle of the Zipf multiset. Every block has the
/// same composition on every seed; only the order (and thus which requests
/// hit the LRU cache) changes.
pub fn zipf_sequence(seed: u64, blocks: usize) -> Vec<usize> {
    let multiset: Vec<usize> = (0..ZIPF_POPULATION)
        .flat_map(|k| std::iter::repeat_n(k, zipf_count(k)))
        .collect();
    let mut rng = Rng::new(seed ^ 0x21FF_0000);
    let mut out: Vec<usize> = (0..ZIPF_CAPACITY).collect();
    rng.shuffle(&mut out);
    out.reserve(multiset.len() * blocks);
    for _ in 0..blocks {
        let mut block = multiset.clone();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// `blocks` back-to-back seeded permutations of `0..keys`.
pub fn cycle_sequence(seed: u64, keys: usize, blocks: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(keys * blocks);
    for _ in 0..blocks {
        let mut block: Vec<usize> = (0..keys).collect();
        rng.shuffle(&mut block);
        out.extend(block);
    }
    out
}

/// Machines in every replay_faults cluster (8 GPUs each, so 64 GPUs).
pub const REPLAY_MACHINES: usize = 8;

/// replay_faults: clusters of 64 GPUs, homogeneous and mixed.
pub fn replay_specs() -> Vec<String> {
    vec![
        plan_spec("sd", Fleet::Machines(REPLAY_MACHINES), 256),
        plan_spec("controlnet", Fleet::Machines(REPLAY_MACHINES), 256),
        plan_spec("cdm-lsun", Fleet::Machines(REPLAY_MACHINES), 256),
        plan_spec("dit", Fleet::Machines(REPLAY_MACHINES), 512),
        plan_spec("sdxl", Fleet::Machines(REPLAY_MACHINES), 256),
        plan_spec("imagen", Fleet::Machines(REPLAY_MACHINES), 512),
        plan_spec("sd", Fleet::Mixed("a100:4,h100:4"), 256),
    ]
}

/// The fault kinds every replay_faults spec is paired with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    None,
    Straggler,
    LossyLink,
    NodeDrop,
}

pub const FAULT_KINDS: [FaultKind; 4] = [
    FaultKind::None,
    FaultKind::Straggler,
    FaultKind::LossyLink,
    FaultKind::NodeDrop,
];

/// One `FaultSpec` document of `kind` with seeded parameters.
pub fn fault_spec(kind: FaultKind, rng: &mut Rng) -> String {
    let world = REPLAY_MACHINES * 8;
    let seed = rng.next_u64() % 1_000_000;
    let (stragglers, links, drops) = match kind {
        FaultKind::None => (String::new(), String::new(), String::new()),
        FaultKind::Straggler => (
            format!(
                "{{\"device\":{},\"scale\":{},\"from\":0.0}}",
                rng.below(world),
                rng.centi(1.2, 2.0)
            ),
            String::new(),
            String::new(),
        ),
        FaultKind::LossyLink => {
            let src = rng.below(REPLAY_MACHINES);
            let dst = rng.below(REPLAY_MACHINES);
            (
                String::new(),
                format!(
                    "{{\"src_machine\":{src},\"dst_machine\":{dst},\"scale\":{},\"loss\":{},\"retransmit\":0.002,\"from\":0.0,\"until\":null}}",
                    rng.centi(1.5, 3.0),
                    rng.centi(0.01, 0.1)
                ),
                String::new(),
            )
        }
        FaultKind::NodeDrop => (
            String::new(),
            String::new(),
            format!(
                "{{\"machine\":{},\"at\":{}}}",
                rng.below(REPLAY_MACHINES),
                rng.centi(0.1, 0.5)
            ),
        ),
    };
    format!(
        "{{\"schema_version\":1,\"seed\":{seed},\"stragglers\":[{stragglers}],\"links\":[{links}],\"node_drops\":[{drops}]}}"
    )
}

/// One replay_faults request: which base spec it replays, its fault kind
/// and the `POST /simulate` body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayPair {
    pub spec: usize,
    pub kind: FaultKind,
    pub faults: String,
    pub body: String,
}

/// Every (spec, fault kind) pair of replay_faults, parameters drawn from
/// `seed`.
pub fn replay_pairs(seed: u64) -> Vec<ReplayPair> {
    let specs = replay_specs();
    let mut rng = Rng::new(seed ^ 0xFA17_0000);
    let mut out = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        for kind in FAULT_KINDS {
            let faults = fault_spec(kind, &mut rng);
            out.push(ReplayPair {
                spec: i,
                kind,
                body: format!("{{\"spec\":{spec},\"faults\":{faults}}}"),
                faults,
            });
        }
    }
    out
}

/// A workload's generated input: where each body goes (`"stdin"` for the
/// CLI), the distinct bodies, and the order they are sent in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Requests {
    pub path: &'static str,
    pub bodies: Vec<String>,
    pub seq: Vec<usize>,
    /// Requests in one block, the unit with the same composition on every
    /// seed. zipf_mix's warm block comes before the first of them.
    pub block: usize,
}

impl Requests {
    /// The bytes sent, in order, one body per line.
    pub fn bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for &i in &self.seq {
            out.extend_from_slice(self.path.as_bytes());
            out.push(b' ');
            out.extend_from_slice(self.bodies[i].as_bytes());
            out.push(b'\n');
        }
        out
    }
}

/// The seed `run.py --all` uses when none is given.
pub const DEFAULT_SEED: u64 = 1;

/// The names of the workloads, in the order `run.py --all` runs them.
pub const WORKLOADS: [&str; 3] = ["cli_plan", "zipf_mix", "replay_faults"];

/// The request sequence of `workload`: `blocks` seeded passes over its
/// population (for zipf_mix, over its Zipf multiset).
pub fn requests(workload: &str, seed: u64, blocks: usize) -> Option<Requests> {
    let (path, bodies, seq) = match workload {
        "cli_plan" => {
            let specs = cli_specs();
            let seq = cycle_sequence(seed, specs.len(), blocks);
            ("stdin", specs, seq)
        }
        "zipf_mix" => ("/plan", zipf_specs(), zipf_sequence(seed, blocks)),
        "replay_faults" => {
            let bodies: Vec<String> = replay_pairs(seed).into_iter().map(|p| p.body).collect();
            let seq = cycle_sequence(seed, bodies.len(), blocks);
            ("/simulate", bodies, seq)
        }
        _ => return None,
    };
    let warm = if workload == "zipf_mix" {
        ZIPF_CAPACITY
    } else {
        0
    };
    let block = (seq.len() - warm) / blocks.max(1);
    Some(Requests {
        path,
        bodies,
        seq,
        block,
    })
}
