//! Golden set-up outputs: the saved estimator artifacts and the traces
//! the benchmark's workloads generate. Profiling and trace generation
//! may get cheaper, but every coefficient, guard cell and request field
//! they produce must keep its bits. Each value is an FNV-1a hash (a
//! fixed algorithm, unlike `DefaultHasher`) captured before the set-up
//! path was optimised.

use gpusim::ClusterSpec;
use modelspec::ModelSpec;
use muxwise::Estimators;
use simcore::SimRng;
use workload::{
    generate, generate_fleet_stream, generate_mixed, generate_turns, RequestSpec, WorkloadKind,
};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Hash of every field of every request, and the request count.
fn trace_hash(reqs: &[RequestSpec]) -> (usize, u64) {
    let mut h = Fnv::new();
    for r in reqs {
        h.u64(r.id);
        h.u64(r.arrival.as_nanos());
        h.u64(r.session);
        h.u64(u64::from(r.turn));
        h.u64(r.content.segments().len() as u64);
        for &(stream, tokens) in r.content.segments() {
            h.u64(stream);
            h.u64(tokens);
        }
        h.u64(r.prior_context);
        h.u64(r.output_tokens);
    }
    (reqs.len(), h.0)
}

/// `values` as the Rust literal that pins them.
fn literal(values: &[(usize, u64)]) -> String {
    let rows: Vec<String> = values
        .iter()
        .map(|(n, h)| format!("    ({n}, 0x{h:016x}),\n"))
        .collect();
    format!("[\n{}]", rows.concat())
}

/// The saved artifact of `model` profiled on `cluster` at TP 8, as the
/// benchmark's testbeds profile it: its length in bytes and its hash.
fn artifact_hash(name: &str, model: &ModelSpec, cluster: &ClusterSpec) -> (usize, u64) {
    let est = Estimators::profile(model, cluster, cluster.num_gpus);
    let dir = std::env::temp_dir().join(format!("muxwise-setup-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}.json"));
    estimator::save_estimators(&path, &est.predictor, &est.guard).expect("save");
    let json = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
    let mut h = Fnv::new();
    h.bytes(&json);
    (json.len(), h.0)
}

#[test]
fn estimator_artifacts_keep_their_bytes() {
    let got = [
        artifact_hash("8b-a100", &ModelSpec::llama8b(), &ClusterSpec::dgx_a100()),
        artifact_hash("70b-a100", &ModelSpec::llama70b(), &ClusterSpec::dgx_a100()),
        artifact_hash("8b-h100", &ModelSpec::llama8b(), &ClusterSpec::dgx_h100()),
        artifact_hash("70b-h100", &ModelSpec::llama70b(), &ClusterSpec::dgx_h100()),
    ];
    assert_eq!(got, ARTIFACTS, "got {}", literal(&got));
}

/// Llama-8B and Llama-70B on 8×A100, then on 8×H100.
const ARTIFACTS: [(usize, u64); 4] = [
    (40176, 0xa894a752893e507b),
    (40217, 0xfc638cafbe19ed0a),
    (47148, 0x95191cd00ad4102b),
    (46951, 0xa4fb87f287288694),
];

/// The benchmark's solo ladder: five Tool&Agent rungs, each drawn from
/// its own stream of the seed (36,000 requests on the 8 req/s rung,
/// 12,000 on the others).
fn ladder(seed: u64) -> Vec<(usize, u64)> {
    [4.0, 6.0, 8.0, 10.0, 12.0]
        .iter()
        .enumerate()
        .map(|(k, &rate)| {
            let n = if k == 2 { 36_000 } else { 12_000 };
            let mut rng =
                SimRng::seed_from(seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            trace_hash(&generate(WorkloadKind::ToolAgent, n, rate, &mut rng))
        })
        .collect()
}

#[test]
fn solo_ladder_traces_keep_their_bits() {
    let got: Vec<_> = [1, 7].into_iter().flat_map(ladder).collect();
    assert_eq!(got, LADDER, "got {}", literal(&got));
}

/// Seed 1's rungs from 4 to 12 req/s, then seed 7's.
const LADDER: [(usize, u64); 10] = [
    (12000, 0xcd7fb5bbbfd9f683),
    (12000, 0x9db8e064acae3ef2),
    (36000, 0xe7ac583d8f13df82),
    (12000, 0x64e5bcb09df05a5e),
    (12000, 0x23da163f75983319),
    (12000, 0xa9879748f04c5797),
    (12000, 0xb10efc757b6d7fc4),
    (36000, 0xe26d870da26c0d61),
    (12000, 0xc7b1e26495a5c83c),
    (12000, 0x63949ae437b46b7e),
];

#[test]
fn fleet_streams_keep_their_bits() {
    let mut got = Vec::new();
    for seed in [1, 7] {
        for (members, sessions, rate) in [(256, 16, 0.5), (48, 96, 1.5)] {
            let mut rng = SimRng::seed_from(seed);
            let trace = generate_fleet_stream(
                WorkloadKind::Conversation,
                members,
                sessions,
                rate,
                8.0,
                &mut rng,
            );
            got.push(trace_hash(&trace));
        }
    }
    assert_eq!(got, FLEET, "got {}", literal(&got));
}

/// The 256-member and 48-member fleets at seed 1, then at seed 7.
const FLEET: [(usize, u64); 4] = [
    (10431, 0xc1bf49f57f9e8b40),
    (11697, 0x5ebc2f6f870d1977),
    (10396, 0xf15e3db2da89348a),
    (11702, 0x020171b43d66fa0a),
];

#[test]
fn turn_and_mixed_traces_keep_their_bits() {
    let mut got = Vec::new();
    for seed in [1, 7] {
        for kind in WorkloadKind::all() {
            let mut rng = SimRng::seed_from(seed);
            got.push(trace_hash(&generate_turns(kind, 3_000, &mut rng)));
            got.push(trace_hash(&generate(kind, 2_000, 4.0, &mut rng)));
        }
        let mut rng = SimRng::seed_from(seed);
        got.push(trace_hash(&generate_mixed(
            &[
                (WorkloadKind::ShareGpt, 1_000),
                (WorkloadKind::OpenThoughts, 500),
                (WorkloadKind::Conversation, 1_500),
                (WorkloadKind::ToolAgent, 1_500),
            ],
            3.0,
            &mut rng,
        )));
    }
    assert_eq!(got, TURNS, "got {}", literal(&got));
}

/// Per seed (1, then 7): `generate_turns` and `generate` for each
/// workload in Table 1 order, then the mixture.
const TURNS: [(usize, u64); 22] = [
    (3000, 0xcd06161145502265),
    (2000, 0x75fc6c2a9042907a),
    (3000, 0x21b35abc55bdc255),
    (2000, 0x2b9311f919341292),
    (3000, 0xb0c71eaf0b0b5ac5),
    (2000, 0xa6494bea8d16d692),
    (3000, 0x1c6c26666229891b),
    (2000, 0xd6b80a55f00fc0b1),
    (3000, 0x9ea006376e4ef775),
    (2000, 0x826a4108898f750e),
    (4500, 0x5da7888f1ef19f02),
    (3000, 0x05896bfad9cb9a37),
    (2000, 0xe37b2c7f0027d5ca),
    (3000, 0xad94286b3f469b2f),
    (2000, 0xa65d9991391bbf85),
    (3000, 0x159a14a5f8db1cc3),
    (2000, 0xe0664c8ffc627090),
    (3000, 0xfb2dd1030c346b70),
    (2000, 0x69757a056b792fe7),
    (3000, 0x3ea2b614ffeddc56),
    (2000, 0x163e714882e23aef),
    (4500, 0x327403c64c50d45c),
];
