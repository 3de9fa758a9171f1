//! Every input the benchmark feeds the program, generated from the seed
//! alone: the training set, the batch order, the model's initial weights,
//! the noise stream, and the `serve_mix` request stream.

use diva_dp::{make_image_blobs, Dataset};
use diva_nn::{Layer, Network};
use diva_serve::api;
use diva_tensor::DivaRng;

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// Mini-batch size of both training workloads.
pub const BATCH: usize = 32;
/// Fixed consecutive batches in the training set.
pub const BATCHES: usize = 16;
/// Image side of the MNIST-shaped inputs.
pub const SIDE: usize = 28;
/// Label classes.
pub const CLASSES: usize = 10;
/// Within-class pixel standard deviation of the synthetic images.
const SPREAD: f32 = 0.8;

/// One independent generator per input, so that adding a draw to one input
/// never shifts another.
fn stream(seed: u64, tag: u64) -> DivaRng {
    DivaRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

const TAG_DATA: u64 = 1;
const TAG_ORDER: u64 = 2;
const TAG_INIT: u64 = 3;
const TAG_NOISE: u64 = 4;
const TAG_REQUESTS: u64 = 5;
const TAG_PASS: u64 = 6;

/// The network's parameter layers and their index in the layer list.
pub const NAMED_LAYERS: [(usize, &str); 4] = [(0, "conv1"), (3, "conv2"), (7, "fc1"), (9, "fc2")];

/// `mnist_cnn`: conv(1→16, 3×3) · relu · maxpool2 · conv(16→32, 3×3) ·
/// relu · maxpool2 · flatten · dense(1568→256) · relu · dense(256→10).
pub fn mnist_cnn(seed: u64) -> Network {
    let mut rng = stream(seed, TAG_INIT);
    Network::new(vec![
        Layer::conv2d(1, 16, 3, 1, 1, SIDE, SIDE, &mut rng),
        Layer::relu(),
        Layer::max_pool2d(2),
        Layer::conv2d(16, 32, 3, 1, 1, SIDE / 2, SIDE / 2, &mut rng),
        Layer::relu(),
        Layer::max_pool2d(2),
        Layer::flatten(),
        Layer::dense(32 * (SIDE / 4) * (SIDE / 4), 256, true, &mut rng),
        Layer::relu(),
        Layer::dense(256, CLASSES, true, &mut rng),
    ])
}

/// The training set: `BATCHES × BATCH` labelled images.
pub fn dataset(seed: u64) -> Dataset {
    make_image_blobs(
        BATCHES * BATCH,
        SIDE,
        CLASSES,
        SPREAD,
        &mut stream(seed, TAG_DATA),
    )
}

/// The order in which the fixed batches are visited, cycled for as many
/// steps as a run takes.
pub fn batch_order(seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..BATCHES).collect();
    stream(seed, TAG_ORDER).shuffle(&mut order);
    order
}

/// The generator the trainer draws its Gaussian noise from.
pub fn noise_rng(seed: u64) -> DivaRng {
    stream(seed, TAG_NOISE)
}

/// The endpoints `serve_mix` calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Endpoint {
    /// `POST /epsilon`.
    Epsilon,
    /// `POST /run` in sync mode.
    Run,
    /// `POST /explore` in sync mode.
    Explore,
    /// `GET /scenarios`.
    Scenarios,
}

impl Endpoint {
    /// The HTTP method.
    pub fn method(self) -> &'static str {
        match self {
            Endpoint::Scenarios => "GET",
            _ => "POST",
        }
    }

    /// The request path.
    pub fn path(self) -> &'static str {
        match self {
            Endpoint::Epsilon => "/epsilon",
            Endpoint::Run => "/run",
            Endpoint::Explore => "/explore",
            Endpoint::Scenarios => "/scenarios",
        }
    }
}

/// One request of the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Where it goes.
    pub endpoint: Endpoint,
    /// The JSON body (empty for `GET`).
    pub body: String,
}

impl Request {
    fn post(endpoint: Endpoint, body: String) -> Self {
        Self { endpoint, body }
    }

    /// The body to send, if the method carries one.
    pub fn body_bytes(&self) -> Option<&[u8]> {
        (self.endpoint != Endpoint::Scenarios).then_some(self.body.as_bytes())
    }

    /// The server's memo-cache key for this request, `None` for the
    /// uncached `GET /scenarios`.
    ///
    /// # Panics
    ///
    /// Panics if the body does not parse; every generated body does.
    pub fn cache_key(&self) -> Option<String> {
        let body = self.body.as_bytes();
        match self.endpoint {
            Endpoint::Epsilon => Some(api::epsilon_cache_key(
                &api::parse_epsilon_request(body).expect("generated /epsilon body parses"),
            )),
            Endpoint::Run => Some(api::run_cache_key(
                &api::parse_run_request(body).expect("generated /run body parses"),
            )),
            Endpoint::Explore => Some(api::explore_cache_key(
                &api::parse_explore_request(body).expect("generated /explore body parses"),
            )),
            Endpoint::Scenarios => None,
        }
    }
}

/// Requests in one pass of the stream.
pub const STREAM_LEN: usize = 120;

/// One cost stratum of fresh requests: how many distinct bodies a stream
/// draws from it, how many exact repeats of those it adds, and the
/// candidates. Candidates of one class differ only in fields that barely
/// move the cost (design point, δ, a set value), so every seed's pass has
/// the same cost profile and the seeds differ in the exact bodies.
struct Class {
    fresh: usize,
    repeats: usize,
    candidates: Vec<Request>,
}

const MODELS: [&str; 9] = [
    "vgg16",
    "resnet50",
    "resnet152",
    "squeezenet",
    "mobilenet",
    "bert_base",
    "bert_large",
    "lstm_small",
    "lstm_large",
];

fn run_body(fields: &[(&str, &str)]) -> Request {
    let mut body = String::from("{");
    for (k, v) in fields {
        body.push_str(&format!("\"{k}\": \"{v}\", "));
    }
    body.push_str("\"mode\": \"sync\"}");
    Request::post(Endpoint::Run, body)
}

/// `/epsilon` bodies for one (q, σ) over `steps` × δ, with an optional
/// ε-vs-steps curve.
fn epsilon_bodies(q: f64, sigma: f64, steps: &[u64], curve: Option<&str>) -> Vec<Request> {
    let curve = curve.map_or(String::new(), |c| format!(", \"step_counts\": \"{c}\""));
    let mut out = Vec::new();
    for steps in steps {
        for delta in ["1e-5", "1e-6", "1e-7", "5e-6", "5e-7"] {
            out.push(Request::post(
                Endpoint::Epsilon,
                format!(
                    "{{\"q\": {q}, \"sigma\": {sigma}, \"steps\": {steps}, \"delta\": {delta}{curve}}}"
                ),
            ));
        }
    }
    out
}

fn explore_bodies(budget: usize) -> Vec<Request> {
    let mut out = Vec::new();
    for strategy in ["random", "grid", "halving"] {
        for seed in 1..=4 {
            out.push(Request::post(
                Endpoint::Explore,
                format!(
                    "{{\"strategy\": \"{strategy}\", \"budget\": {budget}, \"seed\": {seed}, \
                     \"mode\": \"sync\"}}"
                ),
            ));
        }
    }
    out
}

/// The request classes of one pass: ≈25% `/epsilon` (PLD plus RDP, light,
/// medium and curve-sized), ≈55% sync `/run` (one fig13/fig14/fig16 cell
/// per model up to small dse/sensitivity grids, some with `set.*`), ≈10%
/// sync `/explore` (budget 16–64) and ≈10% `GET /scenarios`; a third of
/// all requests are exact repeats of an earlier key.
fn classes() -> Vec<Class> {
    let class = |fresh, repeats, candidates| Class {
        fresh,
        repeats,
        candidates,
    };
    let mut out = vec![
        class(7, 4, epsilon_bodies(0.005, 1.3, &[1000, 2000, 4000], None)),
        class(7, 4, epsilon_bodies(0.01, 1.0, &[1000, 2000, 4000], None)),
        class(
            5,
            3,
            epsilon_bodies(0.02, 1.0, &[2000], Some("500,1000,2000")),
        ),
    ];
    for m in MODELS {
        let mut fig13 = Vec::new();
        for p in ["ws", "osppu", "divawoppu", "diva"] {
            for a in ["dpsgdr", "sgd"] {
                fig13.push(run_body(&[
                    ("scenario", "fig13"),
                    ("models", m),
                    ("points", p),
                    ("algs", a),
                ]));
            }
        }
        let fig16 = ["ws", "oswoppu", "osppu", "divawoppu", "diva"]
            .map(|p| run_body(&[("scenario", "fig16"), ("models", m), ("points", p)]));
        let fig13_set = [
            ("drain_rows", "2"),
            ("drain_rows", "4"),
            ("drain_rows", "16"),
        ]
        .into_iter()
        .chain([("sram_mib", "8"), ("sram_mib", "32")])
        .map(|(k, v)| {
            let key = format!("set.{k}");
            run_body(&[
                ("scenario", "fig13"),
                ("models", m),
                ("points", "ws,diva"),
                (&key, v),
            ])
        })
        .collect();
        out.push(class(1, 1, fig13));
        out.push(class(1, 1, fig16.to_vec()));
        out.push(class(1, 0, fig13_set));
    }
    for m in ["vgg16", "resnet152", "bert_large", "lstm_large"] {
        let fig14 = ["ws", "osppu", "divawoppu", "diva"]
            .map(|p| run_body(&[("scenario", "fig14"), ("models", m), ("points", p)]));
        out.push(class(1, 0, fig14.to_vec()));
    }
    for m in ["resnet50", "mobilenet", "bert_base"] {
        let dse = [
            "dse_pe_scale",
            "dse_drain_rate",
            "dse_sram",
            "dse_bandwidth",
        ]
        .map(|s| run_body(&[("scenario", s), ("models", m)]));
        out.push(class(2, 1, dse.to_vec()));
    }
    let sensitivity = |scenario, models: &[&str]| {
        models
            .iter()
            .map(|m| run_body(&[("scenario", scenario), ("models", m)]))
            .collect()
    };
    out.push(class(
        3,
        2,
        sensitivity(
            "sensitivity_image",
            &["resnet152", "squeezenet", "mobilenet"],
        ),
    ));
    out.push(class(
        2,
        1,
        sensitivity(
            "sensitivity_seq",
            &["bert_base", "bert_large", "lstm_small", "lstm_large"],
        ),
    ));
    out.push(class(4, 3, explore_bodies(16)));
    out.push(class(2, 1, explore_bodies(32)));
    out.push(class(1, 1, explore_bodies(64)));
    out.push(class(
        12,
        0,
        vec![Request::post(Endpoint::Scenarios, String::new())],
    ));
    out
}

/// The seeded request stream of one `serve_mix` pass.
///
/// Each class contributes `fresh` bodies drawn without replacement (so
/// they are distinct keys) and `repeats` exact copies of its own fresh
/// bodies; the whole pass is then shuffled, so whichever copy of a key
/// comes first is its cache miss and the rest are hits. `GET /scenarios`
/// is drawn with replacement: it is served from a prebuilt document and
/// never cached.
pub fn request_stream(seed: u64) -> Vec<Request> {
    let mut rng = stream(seed, TAG_REQUESTS);
    let mut out = Vec::with_capacity(STREAM_LEN);
    for class in classes() {
        let Class {
            fresh,
            repeats,
            mut candidates,
        } = class;
        if candidates.len() == 1 {
            out.extend(std::iter::repeat_n(candidates.remove(0), fresh));
            continue;
        }
        rng.shuffle(&mut candidates);
        candidates.truncate(fresh);
        for _ in 0..repeats {
            let pick = candidates[rng.index(fresh)].clone();
            out.push(pick);
        }
        out.extend(candidates);
    }
    rng.shuffle(&mut out);
    debug_assert_eq!(out.len(), STREAM_LEN);
    out
}

/// The order in which pass `pass` sends the stream: a fresh shuffle per
/// pass, so which requests the two clients overlap varies from pass to
/// pass and averages out over a run instead of being fixed by the seed.
pub fn pass_order(seed: u64, pass: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..STREAM_LEN).collect();
    let pass_seed = seed ^ (pass as u64 + 1).wrapping_mul(0xd1b5_4a32_d192_ed03);
    stream(pass_seed, TAG_PASS).shuffle(&mut order);
    order
}

/// The number of distinct cache keys in `stream` — what the server's
/// `computed` counter must read after serving it once.
pub fn distinct_keys(stream: &[Request]) -> usize {
    let mut keys: Vec<String> = stream.iter().filter_map(Request::cache_key).collect();
    keys.sort();
    keys.dedup();
    keys.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_bytes(ds: &Dataset) -> Vec<u32> {
        ds.inputs.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn one_seed_yields_the_same_inputs() {
        for seed in [DEFAULT_SEED, 7] {
            let (a, b) = (dataset(seed), dataset(seed));
            assert_eq!(data_bytes(&a), data_bytes(&b));
            assert_eq!(a.labels, b.labels);
            assert_eq!(a.inputs.shape().dims(), &[BATCHES * BATCH, 1, SIDE, SIDE]);
            assert_eq!(batch_order(seed), batch_order(seed));
            let (na, nb) = (mnist_cnn(seed), mnist_cnn(seed));
            for (la, lb) in na.layers().iter().zip(nb.layers()) {
                for (pa, pb) in la.params().iter().zip(lb.params()) {
                    assert_eq!(pa.data(), pb.data());
                }
            }
            let (sa, sb) = (request_stream(seed), request_stream(seed));
            assert_eq!(sa, sb);
            assert_eq!(distinct_keys(&sa), distinct_keys(&sb));
            assert_eq!(pass_order(seed, 3), pass_order(seed, 3));
        }
    }

    #[test]
    fn two_seeds_differ() {
        assert_ne!(data_bytes(&dataset(1)), data_bytes(&dataset(2)));
        assert_ne!(batch_order(1), batch_order(2));
        assert_ne!(
            mnist_cnn(1).layers()[0].params()[0].data(),
            mnist_cnn(2).layers()[0].params()[0].data()
        );
        assert_ne!(request_stream(1), request_stream(2));
        assert_ne!(pass_order(1, 0), pass_order(2, 0));
        assert_ne!(pass_order(1, 0), pass_order(1, 1));
        assert_ne!(
            noise_rng(1).standard_normal(),
            noise_rng(2).standard_normal()
        );
    }

    #[test]
    fn the_stream_has_the_documented_mix() {
        for seed in [DEFAULT_SEED, 7, 1234] {
            let s = request_stream(seed);
            assert_eq!(s.len(), STREAM_LEN);
            let count = |e: Endpoint| s.iter().filter(|r| r.endpoint == e).count();
            assert_eq!(count(Endpoint::Epsilon), 30);
            assert_eq!(count(Endpoint::Run), 66);
            assert_eq!(count(Endpoint::Explore), 12);
            assert_eq!(count(Endpoint::Scenarios), 12);
            // Fresh bodies are drawn without replacement, so the distinct
            // key count — the `computed` counter after one pass — is fixed.
            assert_eq!(distinct_keys(&s), 68);
            let repeats = s.iter().filter(|r| r.cache_key().is_some()).count() - 68;
            assert_eq!(repeats, 40, "a third of the pass repeats an earlier key");
        }
    }

    #[test]
    fn the_model_has_the_documented_shape() {
        let net = mnist_cnn(DEFAULT_SEED);
        assert_eq!(net.layers().len(), 10);
        assert_eq!(net.param_count(), 160 + 4640 + 1568 * 256 + 256 + 2570);
        for (idx, _) in NAMED_LAYERS {
            assert!(net.layers()[idx].param_count() > 0);
        }
    }
}
