//! The five workload generators.

use simcore::dist::{BoundedLogNormal, Discrete};
use simcore::{SimRng, SimTime};

use crate::content::ContentSpec;

/// The workloads of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum WorkloadKind {
    /// Chatbot: moderate input and output, single turn.
    ShareGpt,
    /// Long-context understanding: ultra-long input, short output.
    Loogle,
    /// Reasoning: short input (shared system prompt), ultra-long output.
    OpenThoughts,
    /// Real-world multi-turn conversations (Mooncake trace shape).
    Conversation,
    /// Real-world multi-turn tool/agent interactions.
    ToolAgent,
}

impl WorkloadKind {
    /// Human-readable name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::ShareGpt => "ShareGPT",
            WorkloadKind::Loogle => "LooGLE",
            WorkloadKind::OpenThoughts => "OpenThoughts",
            WorkloadKind::Conversation => "Conversation",
            WorkloadKind::ToolAgent => "Tool&Agent",
        }
    }

    /// True for session-structured (multi-turn) workloads.
    pub fn is_multi_turn(&self) -> bool {
        matches!(self, WorkloadKind::Conversation | WorkloadKind::ToolAgent)
    }

    /// All five workloads, in Table 1 order.
    pub fn all() -> [WorkloadKind; 5] {
        [
            WorkloadKind::ShareGpt,
            WorkloadKind::Loogle,
            WorkloadKind::OpenThoughts,
            WorkloadKind::Conversation,
            WorkloadKind::ToolAgent,
        ]
    }
}

/// One request (one turn of a session for multi-turn workloads).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RequestSpec {
    /// Unique id, dense from 0 in arrival order.
    pub id: u64,
    /// Arrival time.
    pub arrival: SimTime,
    /// Session this turn belongs to (also the content stream id).
    pub session: u64,
    /// Turn number within the session, from 0.
    pub turn: u32,
    /// Full input context (all previous turns plus this turn's new
    /// tokens).
    pub content: ContentSpec,
    /// Tokens of the context that already existed when the turn was
    /// issued (previous turns' context + outputs, or a shared system
    /// prompt) — the *reused length* column of Table 1. The reuse
    /// actually realized at runtime depends on the KV pool.
    pub prior_context: u64,
    /// Output tokens to generate.
    pub output_tokens: u64,
}

impl RequestSpec {
    /// Total input-context length (the Table 1 "input length": new +
    /// reused).
    pub fn input_tokens(&self) -> u64 {
        self.content.total_tokens()
    }
}

/// The stream id of the OpenThoughts shared system prompt.
const SYSTEM_STREAM: u64 = 0xFFFF_0001;
/// OpenThoughts system-prompt length (Table 1's constant reused length).
const SYSTEM_PROMPT_TOKENS: u64 = 243;
/// Sessions stop growing past this context length (the traces' ~123 K
/// maximum input).
const MAX_SESSION_CONTEXT: u64 = 120_000;

struct Lengths {
    new_input: BoundedLogNormal,
    output: BoundedLogNormal,
    turns: Option<Discrete>,
    system_prompt: bool,
}

/// Calibrated length distributions per workload, computed once per
/// process. Calibration (bisection over the truncated mean) is pure math
/// on constants, so sharing the result across sessions changes nothing;
/// it just keeps the per-session path free of the 64-step solver.
fn lengths(kind: WorkloadKind) -> &'static Lengths {
    use std::sync::OnceLock;
    static CACHE: OnceLock<[Lengths; 5]> = OnceLock::new();
    let all = CACHE.get_or_init(|| WorkloadKind::all().map(calibrate));
    &all[WorkloadKind::all()
        .iter()
        .position(|&k| k == kind)
        .expect("kind is one of the five workloads")]
}

fn calibrate(kind: WorkloadKind) -> Lengths {
    // Multi-turn turn-count distribution: chosen so the expected
    // accumulated context matches Table 1's reused-length means (see
    // tests in `stats`).
    let turns = Discrete::new(vec![
        (1, 0.35),
        (2, 0.25),
        (3, 0.18),
        (4, 0.12),
        (6, 0.07),
        (8, 0.03),
    ]);
    match kind {
        WorkloadKind::ShareGpt => Lengths {
            new_input: BoundedLogNormal::from_min_mean_max(4.0, 226.0, 1024.0),
            output: BoundedLogNormal::from_min_mean_max(4.0, 195.0, 1838.0),
            turns: None,
            system_prompt: false,
        },
        WorkloadKind::Loogle => Lengths {
            new_input: BoundedLogNormal::from_min_mean_max(3380.0, 30_000.0, 81_000.0),
            output: BoundedLogNormal::from_min_mean_max(2.0, 15.0, 326.0),
            turns: None,
            system_prompt: false,
        },
        WorkloadKind::OpenThoughts => Lengths {
            new_input: BoundedLogNormal::from_min_mean_max(68.0, 466.0, 4390.0),
            output: BoundedLogNormal::from_min_mean_max(684.0, 8374.0, 32_000.0),
            turns: None,
            system_prompt: true,
        },
        WorkloadKind::Conversation => Lengths {
            new_input: BoundedLogNormal::from_min_mean_max(891.0, 3013.0, 30_000.0),
            output: BoundedLogNormal::from_min_mean_max(1.0, 342.0, 2000.0),
            turns: Some(turns),
            system_prompt: false,
        },
        WorkloadKind::ToolAgent => Lengths {
            new_input: BoundedLogNormal::from_min_mean_max(891.0, 3691.0, 30_000.0),
            output: BoundedLogNormal::from_min_mean_max(1.0, 182.0, 2000.0),
            turns: Some(turns),
            system_prompt: false,
        },
    }
}

/// Appends the turns of one session to `out` (single-turn workloads
/// yield one request), up to `cap` requests in `out`. Every turn's
/// lengths are drawn even past `cap`, so the stream's later draws do not
/// depend on where the trace is cut. Arrivals are left at
/// `SimTime::ZERO` and ids at 0; callers assign them.
fn push_session(
    kind: WorkloadKind,
    session: u64,
    rng: &mut SimRng,
    out: &mut Vec<RequestSpec>,
    cap: usize,
) {
    let l = lengths(kind);
    let n_turns = match &l.turns {
        Some(d) => d.sample(rng) as u32,
        None => 1,
    };
    let mut context = ContentSpec::default();
    if l.system_prompt {
        context.push(SYSTEM_STREAM, SYSTEM_PROMPT_TOKENS);
    }
    for turn in 0..n_turns {
        let prior = context.total_tokens();
        if prior > MAX_SESSION_CONTEXT {
            break;
        }
        let new = l.new_input.sample_tokens(rng);
        context.push(session, new);
        let output = l.output.sample_tokens(rng);
        if out.len() < cap {
            out.push(RequestSpec {
                id: 0,
                arrival: SimTime::ZERO,
                session,
                turn,
                content: context.clone(),
                prior_context: prior,
                output_tokens: output,
            });
        }
        // The model's output joins the session context for the next turn.
        context.push(session, output);
    }
}

/// Generates `n` requests with homogeneous Poisson arrivals at
/// `rate` requests/second. Multi-turn sessions keep their turn order
/// under the reassigned timestamps (the Fig. 15 methodology: trace
/// requests, Poisson arrival times).
///
/// # Panics
///
/// Panics if `rate` is not positive.
pub fn generate(kind: WorkloadKind, n: usize, rate: f64, rng: &mut SimRng) -> Vec<RequestSpec> {
    assert!(rate > 0.0, "non-positive rate");
    let mut reqs = generate_turns(kind, n, rng);
    let mut t = SimTime::ZERO;
    for (i, r) in reqs.iter_mut().enumerate() {
        t += simcore::SimDuration::from_secs(rng.exponential(rate));
        r.arrival = t;
        r.id = i as u64;
    }
    reqs
}

/// Generates `n_sessions` full sessions whose first turns arrive Poisson
/// at `session_rate` sessions/second and whose later turns follow after
/// exponential think times (mean `think_secs`). Requests are returned in
/// global arrival order with dense ids.
///
/// # Panics
///
/// Panics if `session_rate` or `think_secs` is not positive.
pub fn generate_sessions(
    kind: WorkloadKind,
    n_sessions: usize,
    session_rate: f64,
    think_secs: f64,
    rng: &mut SimRng,
) -> Vec<RequestSpec> {
    assert!(session_rate > 0.0 && think_secs > 0.0);
    let mut reqs = Vec::new();
    let mut t0 = SimTime::ZERO;
    for session in 1..=n_sessions as u64 {
        t0 += simcore::SimDuration::from_secs(rng.exponential(session_rate));
        let first = reqs.len();
        // A session's lengths are drawn first, then its think times.
        push_session(kind, session, rng, &mut reqs, usize::MAX);
        let mut t = t0;
        for turn in &mut reqs[first..] {
            turn.arrival = t;
            t += simcore::SimDuration::from_secs(rng.exponential(1.0 / think_secs));
        }
    }
    // Generation order is session-major, turn-minor, so ordering by
    // arrival and then generation index is ordering by the unique
    // `(arrival, session, turn)` key. Sorting that as one compact
    // integer, then moving each spec once, beats sorting the specs.
    let mut keys: Vec<u128> = reqs
        .iter()
        .enumerate()
        .map(|(i, r)| (u128::from(r.arrival.as_nanos()) << 64) | i as u128)
        .collect();
    keys.sort_unstable();
    gather(
        &mut reqs,
        keys.into_iter().map(|k| k as u64 as usize).collect(),
    );
    for (i, r) in reqs.iter_mut().enumerate() {
        r.id = i as u64;
    }
    reqs
}

/// Reorders `reqs` so that position `i` holds the spec that was at
/// `from[i]` (a permutation), by following its cycles.
fn gather(reqs: &mut [RequestSpec], mut from: Vec<usize>) {
    for start in 0..from.len() {
        let mut at = start;
        while from[at] != start {
            let next = from[at];
            reqs.swap(at, next);
            from[at] = at;
            at = next;
        }
        from[at] = at;
    }
}

/// Generates a fleet-level arrival stream: one global session trace
/// whose aggregate rate scales with the fleet size, for feeding a router
/// in front of `fleet_size` instances. Each instance's fair share is
/// `sessions_per_instance` sessions arriving at `rate_per_instance`
/// sessions/second; the returned trace interleaves all of them in global
/// arrival order (dense ids), leaving placement entirely to the router.
/// Sessions are multi-turn, so turn `k+1` shares turn `k`'s context
/// stream — the prefix reuse a KV-affinity router exploits.
///
/// # Panics
///
/// Panics if `fleet_size` is zero or the rate/think parameters are not
/// positive (see [`generate_sessions`]).
pub fn generate_fleet_stream(
    kind: WorkloadKind,
    fleet_size: usize,
    sessions_per_instance: usize,
    rate_per_instance: f64,
    think_secs: f64,
    rng: &mut SimRng,
) -> Vec<RequestSpec> {
    assert!(fleet_size > 0, "empty fleet");
    generate_sessions(
        kind,
        fleet_size * sessions_per_instance,
        rate_per_instance * fleet_size as f64,
        think_secs,
        rng,
    )
}

/// Assigns externally generated arrival timestamps (e.g. a bursty trace
/// from [`crate::arrivals`]) to trace requests, preserving order, and
/// truncating to the shorter of the two.
pub fn assign_arrivals(mut reqs: Vec<RequestSpec>, arrivals: &[SimTime]) -> Vec<RequestSpec> {
    reqs.truncate(arrivals.len());
    for (i, (r, &t)) in reqs.iter_mut().zip(arrivals).enumerate() {
        r.arrival = t;
        r.id = i as u64;
    }
    reqs
}

/// Generates a shuffled mixture of workloads with Poisson arrivals at
/// `rate`: `parts` gives `(kind, count)` per component. Used for the
/// skewed-workload studies (Fig. 20 mixes ShareGPT with LooGLE 50/50).
///
/// # Panics
///
/// Panics if `parts` is empty, all counts are zero, or `rate` is not
/// positive.
///
/// # Examples
///
/// ```
/// use simcore::SimRng;
/// use workload::{generate_mixed, WorkloadKind};
/// let mut rng = SimRng::seed_from(9);
/// let reqs = generate_mixed(
///     &[(WorkloadKind::ShareGpt, 10), (WorkloadKind::Loogle, 10)],
///     0.5,
///     &mut rng,
/// );
/// assert_eq!(reqs.len(), 20);
/// ```
pub fn generate_mixed(
    parts: &[(WorkloadKind, usize)],
    rate: f64,
    rng: &mut SimRng,
) -> Vec<RequestSpec> {
    assert!(!parts.is_empty(), "empty mixture");
    assert!(rate > 0.0, "non-positive rate");
    let total: usize = parts.iter().map(|&(_, n)| n).sum();
    assert!(total > 0, "zero requests requested");
    let mut reqs = Vec::with_capacity(total);
    for (component, &(kind, n)) in parts.iter().enumerate() {
        let mut part = generate_turns(kind, n, rng);
        // Give each component disjoint session/stream ids so contents
        // from different mixtures never collide in the cache.
        for r in &mut part {
            r.session |= (component as u64 + 1) << 40;
            let mut c = ContentSpec::default();
            for &(stream, tokens) in r.content.segments() {
                // Per-component private streams keep their offset; shared
                // streams (e.g. system prompts, top bits set) stay global.
                let mapped = if stream >= 1 << 32 {
                    stream
                } else {
                    stream | ((component as u64 + 1) << 40)
                };
                c.push(mapped, tokens);
            }
            r.content = c;
        }
        reqs.append(&mut part);
    }
    // Deterministic shuffle, then Poisson arrival times in order.
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.next_range(i as u64 + 1) as usize);
    }
    let mut t = SimTime::ZERO;
    for (i, r) in reqs.iter_mut().enumerate() {
        t += simcore::SimDuration::from_secs(rng.exponential(rate));
        r.arrival = t;
        r.id = i as u64;
    }
    reqs
}

/// Generates trace requests without arrival times (all zero) — feed to
/// [`assign_arrivals`].
pub fn generate_turns(kind: WorkloadKind, n: usize, rng: &mut SimRng) -> Vec<RequestSpec> {
    let mut reqs = Vec::with_capacity(n);
    let mut session = 1u64;
    while reqs.len() < n {
        push_session(kind, session, rng, &mut reqs, n);
        session += 1;
    }
    reqs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_turn_workloads_have_one_turn_per_session() {
        let mut rng = SimRng::seed_from(1);
        for kind in [WorkloadKind::ShareGpt, WorkloadKind::Loogle] {
            let reqs = generate(kind, 200, 1.0, &mut rng);
            assert!(reqs.iter().all(|r| r.turn == 0));
            assert!(reqs.iter().all(|r| r.prior_context == 0));
        }
    }

    #[test]
    fn openthoughts_shares_system_prompt() {
        let mut rng = SimRng::seed_from(2);
        let reqs = generate(WorkloadKind::OpenThoughts, 50, 1.0, &mut rng);
        for r in &reqs {
            assert_eq!(r.prior_context, SYSTEM_PROMPT_TOKENS);
            assert_eq!(
                r.content.segments()[0],
                (SYSTEM_STREAM, SYSTEM_PROMPT_TOKENS)
            );
        }
    }

    #[test]
    fn multi_turn_context_grows() {
        let mut rng = SimRng::seed_from(3);
        let reqs = generate(WorkloadKind::Conversation, 400, 1.0, &mut rng);
        let mut by_session: std::collections::HashMap<u64, Vec<&RequestSpec>> =
            std::collections::HashMap::new();
        for r in &reqs {
            by_session.entry(r.session).or_default().push(r);
        }
        let mut saw_multi = false;
        for turns in by_session.values() {
            for w in turns.windows(2) {
                saw_multi = true;
                assert!(w[1].input_tokens() > w[0].input_tokens());
                assert_eq!(w[1].prior_context, w[0].input_tokens() + w[0].output_tokens);
            }
        }
        assert!(saw_multi, "no multi-turn session generated");
    }

    #[test]
    fn arrivals_are_increasing_and_rate_matched() {
        let mut rng = SimRng::seed_from(4);
        let reqs = generate(WorkloadKind::ShareGpt, 2000, 5.0, &mut rng);
        for w in reqs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        let span = reqs.last().unwrap().arrival.as_secs();
        let rate = 2000.0 / span;
        assert!((rate - 5.0).abs() < 0.5, "empirical rate {rate}");
    }

    #[test]
    fn session_turn_order_preserved_under_poisson() {
        let mut rng = SimRng::seed_from(5);
        let reqs = generate(WorkloadKind::ToolAgent, 300, 2.0, &mut rng);
        let mut last_turn: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
        for r in &reqs {
            if let Some(&prev) = last_turn.get(&r.session) {
                assert!(r.turn > prev, "turn order violated");
            }
            last_turn.insert(r.session, r.turn);
        }
    }

    #[test]
    fn generate_sessions_orders_globally() {
        let mut rng = SimRng::seed_from(6);
        let reqs = generate_sessions(WorkloadKind::Conversation, 50, 0.5, 20.0, &mut rng);
        for w in reqs.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
        }
    }

    #[test]
    fn gather_applies_a_permutation_of_several_cycles() {
        let mut rng = SimRng::seed_from(9);
        let mut reqs = generate_turns(WorkloadKind::ShareGpt, 7, &mut rng);
        let want: Vec<u64> = reqs.iter().map(|r| r.output_tokens).collect();
        // Cycles (0 3 5), (1 6), (2) and (4).
        let from = vec![3, 6, 2, 5, 4, 0, 1];
        gather(&mut reqs, from.clone());
        let got: Vec<u64> = reqs.iter().map(|r| r.output_tokens).collect();
        let moved: Vec<u64> = from.iter().map(|&i| want[i]).collect();
        assert_eq!(got, moved);
    }

    #[test]
    fn sessions_respect_context_cap() {
        let mut rng = SimRng::seed_from(7);
        let reqs = generate(WorkloadKind::ToolAgent, 3000, 1.0, &mut rng);
        for r in &reqs {
            assert!(r.input_tokens() < MAX_SESSION_CONTEXT + 32_000);
        }
    }

    #[test]
    fn assign_arrivals_truncates_and_orders() {
        let mut rng = SimRng::seed_from(8);
        let turns = generate_turns(WorkloadKind::ShareGpt, 10, &mut rng);
        let times: Vec<SimTime> = (0..5).map(|i| SimTime::from_secs(i as f64)).collect();
        let reqs = assign_arrivals(turns, &times);
        assert_eq!(reqs.len(), 5);
        assert_eq!(reqs[4].arrival, SimTime::from_secs(4.0));
    }
}

#[cfg(test)]
mod mixed_tests {
    use super::*;

    #[test]
    fn mixture_has_disjoint_streams_and_sorted_arrivals() {
        let mut rng = SimRng::seed_from(77);
        let reqs = generate_mixed(
            &[(WorkloadKind::ShareGpt, 20), (WorkloadKind::Loogle, 20)],
            1.0,
            &mut rng,
        );
        assert_eq!(reqs.len(), 40);
        let mut short = 0;
        let mut long = 0;
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            if i > 0 {
                assert!(r.arrival >= reqs[i - 1].arrival);
            }
            if r.input_tokens() >= 3380 {
                long += 1;
            } else {
                short += 1;
            }
        }
        assert_eq!((short, long), (20, 20));
        // Component streams never collide.
        let s1: std::collections::HashSet<u64> = reqs
            .iter()
            .filter(|r| r.input_tokens() < 3380)
            .flat_map(|r| r.content.segments().iter().map(|&(s, _)| s))
            .collect();
        let s2: std::collections::HashSet<u64> = reqs
            .iter()
            .filter(|r| r.input_tokens() >= 3380)
            .flat_map(|r| r.content.segments().iter().map(|&(s, _)| s))
            .collect();
        assert!(s1.is_disjoint(&s2));
    }

    #[test]
    #[should_panic(expected = "empty mixture")]
    fn mixture_rejects_empty() {
        let mut rng = SimRng::seed_from(1);
        generate_mixed(&[], 1.0, &mut rng);
    }
}
