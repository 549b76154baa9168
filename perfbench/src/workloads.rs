//! Data sets, request pools and seeded streams of the served workloads,
//! and the oracle that says what each request must answer.
//!
//! The program under test sees only the files written here. A pool is
//! every distinct request a workload can send; a stream is a seeded
//! sequence of draws from it, so the same `--seed` gives the same
//! traffic and every answer can be checked against one computed once.

use kgq_core::{Budget, CancelToken};
use kgq_graph::generate::{contact_network, ContactParams};
use kgq_graph::io::{read_property, write_property};
use kgq_perfbench::{hash64, Rng, Zipf};
use kgq_rdf::{labeled_to_rdf, parse_ntriples, write_ntriples};
use kgq_serve::{Caps, Snapshot, Verb};

/// Bodies up to this size are kept whole and compared byte for byte;
/// larger ones by length, row count and 64-bit hash.
const KEEP_BODY_BELOW: usize = 16 * 1024;

/// Size of a contact-network data set.
#[derive(Clone, Copy, Debug)]
pub struct ContactSize {
    /// People (`p0..`).
    pub people: usize,
    /// Buses (`b0..`).
    pub buses: usize,
    /// Addresses (`a0..`).
    pub addresses: usize,
}

/// `contact-2k`: 2.6 K nodes, 10 K edges, 12 K triples.
pub const CONTACT_2K: ContactSize = ContactSize {
    people: 2_000,
    buses: 80,
    addresses: 500,
};

/// `contact-10k`: 63 K triples.
pub const CONTACT_10K: ContactSize = ContactSize {
    people: 10_000,
    buses: 400,
    addresses: 2_500,
};

/// A generated contact network as the two files the program reads.
pub struct ContactData {
    /// Property-graph text (`write_property`).
    pub graph_text: String,
    /// The same graph as N-Triples (`labeled_to_rdf` + `write_ntriples`).
    pub nt_text: String,
    /// Its size.
    pub size: ContactSize,
}

/// Generates the data set for `seed`: `contact_network`, then people
/// relabelled at random until exactly a tenth are `infected`. The
/// generator labels each person by its own coin flip, which moves every
/// `?infected` answer — and with it half the metrics — by ±7 % from seed
/// to seed; a fixed share keeps the seeds comparable.
pub fn contact_data(size: ContactSize, seed: u64) -> ContactData {
    let mut g = contact_network(&ContactParams {
        people: size.people,
        buses: size.buses,
        addresses: size.addresses,
        seed,
        ..ContactParams::default()
    });
    let lg = g.labeled_mut();
    let people: Vec<_> = (0..size.people)
        .map(|i| {
            lg.node_named(&format!("p{i}"))
                .expect("the generator names people p0..")
        })
        .collect();
    let is_infected =
        |lg: &kgq_graph::LabeledGraph, n| lg.label_name(lg.node_label(n)) == "infected";
    let mut infected = people.iter().filter(|&&n| is_infected(lg, n)).count();
    let mut rng = Rng::new(seed, 0xDA7A);
    while infected != size.people / 10 {
        let n = people[rng.below(people.len())];
        if infected > size.people / 10 && is_infected(lg, n) {
            lg.relabel_node(n, "person");
            infected -= 1;
        } else if infected < size.people / 10 && !is_infected(lg, n) {
            lg.relabel_node(n, "infected");
            infected += 1;
        }
    }
    let graph_text = write_property(&g);
    let nt_text = write_ntriples(&labeled_to_rdf(g.labeled()));
    ContactData {
        graph_text,
        nt_text,
        size,
    }
}

/// One request of a pool.
#[derive(Clone, Debug)]
pub struct Req {
    /// Wire verb.
    pub verb: Verb,
    /// Wire payload.
    pub payload: String,
}

/// What a request must answer.
#[derive(Clone, Debug)]
pub struct Expected {
    /// Body length in bytes.
    pub len: usize,
    /// Answer rows (lines of the body).
    pub rows: usize,
    /// [`hash64`] of the body.
    pub hash: u64,
    /// The body itself, when small.
    pub body: Option<String>,
}

impl Expected {
    /// The expectation a body sets.
    pub fn of(body: &str) -> Expected {
        Expected {
            len: body.len(),
            rows: count_rows(body),
            hash: hash64(body.as_bytes()),
            body: (body.len() <= KEEP_BODY_BELOW).then(|| body.to_owned()),
        }
    }

    /// Whether `body` is the expected answer.
    pub fn matches(&self, body: &str) -> bool {
        match &self.body {
            Some(want) => want == body,
            None => body.len() == self.len && hash64(body.as_bytes()) == self.hash,
        }
    }
}

/// Lines in a response body.
pub fn count_rows(body: &str) -> usize {
    body.bytes().filter(|&b| b == b'\n').count()
}

/// A template: `n` consecutive pool entries starting at `first`, drawn
/// uniformly or by a Zipf law, with `weight` parts of the mix.
struct Template {
    weight: u32,
    first: usize,
    n: usize,
    zipf: Option<Zipf>,
}

/// Every distinct request of a workload, how to draw from them, and
/// what each must answer.
pub struct Pool {
    /// The requests.
    pub reqs: Vec<Req>,
    /// Their answers, filled by [`Pool::compute_oracle`].
    pub expected: Vec<Expected>,
    templates: Vec<Template>,
}

impl Pool {
    fn new() -> Pool {
        Pool {
            reqs: Vec::new(),
            expected: Vec::new(),
            templates: Vec::new(),
        }
    }

    /// Adds a fixed request with `weight` parts of the mix.
    fn fixed(&mut self, weight: u32, verb: Verb, payload: String) {
        self.family(weight, None, verb, vec![payload]);
    }

    /// Adds a parameterized template: one request per payload, drawn by
    /// Zipf(`s`) over their order when `zipf` is set, uniformly if not.
    fn family(&mut self, weight: u32, zipf: Option<f64>, verb: Verb, payloads: Vec<String>) {
        self.templates.push(Template {
            weight,
            first: self.reqs.len(),
            n: payloads.len(),
            zipf: zipf.map(|s| Zipf::new(payloads.len(), s)),
        });
        self.reqs
            .extend(payloads.into_iter().map(|payload| Req { verb, payload }));
    }

    /// A seeded stream of pool indices. The mix is dealt, not drawn:
    /// a deck holds each template `weight` times and is reshuffled by
    /// the seed every time it runs out, so every deck-length of traffic
    /// has exactly the stated mix (independent draws would move a 10 %
    /// template's share by ±13 % over a 500-request window) and no two
    /// connections can fall into step (one fixed order, cycled, lets
    /// two closed loops phase-lock their slow requests). Which instance
    /// of a parameterized template is sent is drawn each time.
    pub fn stream(&self, rng: Rng) -> Stream<'_> {
        let deck: Vec<usize> = self
            .templates
            .iter()
            .enumerate()
            .flat_map(|(i, t)| std::iter::repeat_n(i, t.weight as usize))
            .collect();
        Stream {
            pool: self,
            rng,
            deck,
            pos: 0,
        }
    }

    /// The first entry of the template `idx` belongs to.
    pub fn template_of(&self, idx: usize) -> usize {
        self.templates
            .iter()
            .map(|t| t.first)
            .take_while(|&first| first <= idx)
            .last()
            .unwrap_or(0)
    }

    /// The first entry of every template: the warm-up pass.
    pub fn warmup(&self) -> Vec<usize> {
        self.templates.iter().map(|t| t.first).collect()
    }

    /// Computes every request's answer in-process from the same two
    /// files the server was given. A request that errs or comes back
    /// partial here is a broken workload, not a measurement.
    pub fn compute_oracle(&mut self, data: &ContactData) -> Result<(), String> {
        let graph = read_property(&data.graph_text).map_err(|e| format!("oracle graph: {e}"))?;
        let store = parse_ntriples(&data.nt_text).map_err(|e| format!("oracle triples: {e}"))?;
        let snap = Snapshot::new(graph, store, Budget::unlimited());
        self.expected.clear();
        for req in &self.reqs {
            let out = snap.execute(req.verb, &Caps::none(), &req.payload, CancelToken::new());
            if !out.ok || out.partial {
                return Err(format!(
                    "oracle: {} `{}` answered `{}`",
                    req.verb.as_str(),
                    req.payload,
                    out.body.lines().last().unwrap_or("")
                ));
            }
            self.expected.push(Expected::of(&out.body));
        }
        Ok(())
    }
}

/// Fisher–Yates.
fn shuffle<T>(deck: &mut [T], rng: &mut Rng) {
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i + 1));
    }
}

/// See [`Pool::stream`].
pub struct Stream<'a> {
    pool: &'a Pool,
    rng: Rng,
    deck: Vec<usize>,
    pos: usize,
}

impl Stream<'_> {
    /// Whether the next request is the first of a fresh deck.
    pub fn at_deck_start(&self) -> bool {
        self.pos.is_multiple_of(self.deck.len())
    }

    /// The next pool index.
    pub fn next_idx(&mut self) -> usize {
        if self.at_deck_start() {
            shuffle(&mut self.deck, &mut self.rng);
        }
        let t = &self.pool.templates[self.deck[self.pos % self.deck.len()]];
        self.pos += 1;
        let k = match &t.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(t.n),
        };
        t.first + k
    }
}

fn rpq(op: &str, expr: &str) -> String {
    format!("{op}\n{expr}")
}

/// The SPARQL point lookup shared by `point_reads` and `rw_durable`.
fn sparql_point(n: usize) -> String {
    format!("SELECT ?b WHERE {{ <p{n}> <contact> ?b . }}")
}

const RPQ_STARTS: &str = "?infected/(contact)*/lives/?address";
const CYPHER_RIDES: &str = "MATCH (p:infected)-[:rides]->(b:bus) RETURN p, b";

/// RPQ `pairs` keys the compiled-query cache by expression, so a pool of
/// 256 distinct spellings over a 64-entry cache makes both hits and
/// compiles occur.
const RPQ_POOL: usize = 256;

/// `point_reads`: the interactive mix, every answer under 16 KB.
pub fn point_reads_pool(size: ContactSize) -> Pool {
    let people = 0..size.people;
    let mut p = Pool::new();
    p.family(
        25,
        Some(1.0),
        Verb::Sparql,
        people.clone().map(sparql_point).collect(),
    );
    p.family(
        15,
        Some(1.0),
        Verb::Sparql,
        people
            .clone()
            .map(|n| {
                format!(
                    "SELECT ?b ?c WHERE {{ <p{n}> <contact> ?b . ?b <contact> ?c . ?c a <person> . }}"
                )
            })
            .collect(),
    );
    p.family(
        10,
        Some(1.0),
        Verb::Sparql,
        people
            .map(|n| {
                format!(
                    "SELECT (COUNT(*) AS ?n) WHERE {{ <p{n}> <rides> ?bus . ?x <rides> ?bus . }}"
                )
            })
            .collect(),
    );
    p.family(
        20,
        Some(1.0),
        Verb::Query,
        (0..RPQ_POOL.min(size.people))
            .map(|n| rpq("pairs", &format!("?[name='person-{n}']/contact/contact")))
            .collect(),
    );
    p.fixed(10, Verb::Query, rpq("starts", RPQ_STARTS));
    p.fixed(10, Verb::Query, rpq("count 6", "(contact+contact^-)*"));
    p.fixed(10, Verb::Cypher, CYPHER_RIDES.to_owned());
    p
}

/// `scan_reads`: five templates, every answer above 100 KB, in a deck
/// of ten: the 3 MB bit-kernel sweep five times, the 2 MB co-rider join
/// twice, the three 100–200 KB answers once each. Sorted by round trip
/// the sweep then covers the 30th to the 80th percentile and the join
/// the top fifth, so the median and the p90 each sit well inside one
/// template's mass (the p90 at the join's own median) instead of near a
/// boundary between two, where a few slow requests move a percentile
/// from one template's time to another's.
pub fn scan_reads_pool() -> Pool {
    let mut p = Pool::new();
    p.fixed(5, Verb::Query, rpq("pairs", "?infected/contact/contact*"));
    p.fixed(
        1,
        Verb::Query,
        rpq("pairs", "?infected/rides/?bus/rides^-/?person"),
    );
    p.fixed(
        2,
        Verb::Sparql,
        "SELECT ?a ?b WHERE { ?a <rides> ?bus . ?b <rides> ?bus . }".to_owned(),
    );
    p.fixed(
        1,
        Verb::Sparql,
        "SELECT ?a ?b ?c ?d WHERE { ?a <contact> ?b . ?b <contact> ?c . ?c <lives> ?d . }"
            .to_owned(),
    );
    p.fixed(
        1,
        Verb::Cypher,
        "MATCH (p:person)-[:contact]->(q:person)-[:contact]->(r:person)-[:lives]->(a:address) \
         RETURN p, q, r, a"
            .to_owned(),
    );
    p
}

/// `rw_durable`'s reader: the `point_reads` SPARQL point, RPQ `starts`
/// and Cypher templates, three parts to one to one: sorted by round
/// trip the point lookup then covers the median and `starts` the tail,
/// each well inside one template's mass. None of them touches what the
/// writer writes, so their answers hold while the store changes.
pub fn rw_reader_pool(size: ContactSize) -> Pool {
    let mut p = Pool::new();
    p.family(
        3,
        Some(1.0),
        Verb::Sparql,
        (0..size.people).map(sparql_point).collect(),
    );
    p.fixed(1, Verb::Query, rpq("starts", RPQ_STARTS));
    p.fixed(1, Verb::Cypher, CYPHER_RIDES.to_owned());
    p
}

/// One commit of the `rw_durable` writer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WriteOp {
    /// `INSERT` of these triples (`(subject, object)` of `<noted>`),
    /// plus an `edge SRC visits DST` line when set.
    Insert {
        /// `(subject, object)` pairs.
        triples: Vec<(String, String)>,
        /// Optional property-graph edge.
        edge: Option<(String, String)>,
    },
    /// `DELETE` of triples inserted earlier.
    Delete {
        /// `(subject, object)` pairs.
        triples: Vec<(String, String)>,
    },
}

impl WriteOp {
    /// Wire verb.
    pub fn verb(&self) -> Verb {
        match self {
            WriteOp::Insert { .. } => Verb::Insert,
            WriteOp::Delete { .. } => Verb::Delete,
        }
    }

    /// Wire payload.
    pub fn payload(&self) -> String {
        let (triples, edge) = match self {
            WriteOp::Insert { triples, edge } => (triples, edge.as_ref()),
            WriteOp::Delete { triples } => (triples, None),
        };
        let mut out = String::new();
        for (s, o) in triples {
            out.push_str(&triple_line(s, o));
        }
        if let Some((src, dst)) = edge {
            out.push_str(&format!("edge {src} visits {dst}\n"));
        }
        out
    }

    /// Mutations in the batch.
    pub fn ops(&self) -> usize {
        match self {
            WriteOp::Insert { triples, edge } => triples.len() + usize::from(edge.is_some()),
            WriteOp::Delete { triples } => triples.len(),
        }
    }
}

/// The N-Triples line of one written triple.
pub fn triple_line(s: &str, o: &str) -> String {
    format!("<{s}> <noted> <{o}> .\n")
}

/// Triples per batch insert and per delete.
pub const BATCH: usize = 100;

/// The writer's seeded op stream: 70 % one-op `INSERT`, 20 % 100-op
/// `INSERT` batch, 10 % `DELETE` of the oldest triples it inserted,
/// dealt from a reshuffled deck of ten like [`Pool::stream`]; every
/// twentieth insert carries an `edge` line. Once its live triples reach
/// `cap` (5 % of the base) the next op is a delete whatever the deck
/// says, which keeps the store within ±5 % of the base at any commit
/// rate.
pub struct WriterStream {
    rng: Rng,
    deck: [u8; 10],
    dealt: usize,
    inserts: u64,
    next: u64,
    live: std::collections::VecDeque<(String, String)>,
    cap: usize,
}

impl WriterStream {
    /// A stream for `seed` over a base of `base_triples`.
    pub fn new(seed: u64, base_triples: usize) -> WriterStream {
        WriterStream {
            rng: Rng::new(seed, 0x77),
            // 0 = one-op insert, 1 = batch insert, 2 = delete.
            deck: [0, 0, 0, 0, 0, 0, 0, 1, 1, 2],
            dealt: 0,
            inserts: 0,
            next: 0,
            live: std::collections::VecDeque::new(),
            cap: (base_triples / 20).max(2 * BATCH),
        }
    }

    fn fresh(&mut self) -> (String, String) {
        let k = self.next;
        self.next += 1;
        (format!("w{k}"), format!("v{}", k % 97))
    }

    /// The next op. The stream assumes the op commits; a failed commit
    /// is counted by the caller and ends the run's correctness anyway.
    pub fn next_op(&mut self) -> WriteOp {
        if self.dealt.is_multiple_of(self.deck.len()) {
            shuffle(&mut self.deck, &mut self.rng);
        }
        let kind = self.deck[self.dealt % self.deck.len()];
        self.dealt += 1;
        if (kind == 2 || self.live.len() >= self.cap) && !self.live.is_empty() {
            let n = BATCH.min(self.live.len());
            return WriteOp::Delete {
                triples: self.live.drain(..n).collect(),
            };
        }
        let n = if kind == 1 { BATCH } else { 1 };
        let triples: Vec<(String, String)> = (0..n).map(|_| self.fresh()).collect();
        self.live.extend(triples.iter().cloned());
        self.inserts += 1;
        let edge = self.inserts.is_multiple_of(20).then(|| {
            let k = self.next;
            (format!("wn{k}"), format!("wn{}", k / 2))
        });
        WriteOp::Insert { triples, edge }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: ContactSize = ContactSize {
        people: 60,
        buses: 4,
        addresses: 12,
    };

    #[test]
    fn streams_repeat_per_seed() {
        let pool = point_reads_pool(TINY);
        let draws = |seed| {
            let mut stream = pool.stream(Rng::new(seed, 0));
            (0..200).map(|_| stream.next_idx()).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
        assert!(draws(1).iter().all(|&i| i < pool.reqs.len()));
        assert_eq!(pool.warmup().len(), 7);
        // Two decks of a hundred hold exactly the stated mix.
        let cypher = pool.warmup()[6];
        assert_eq!(draws(1).iter().filter(|&&i| i == cypher).count(), 20);
        let point = draws(3)
            .iter()
            .filter(|&&i| pool.template_of(i) == 0)
            .count();
        assert_eq!(point, 50);
    }

    #[test]
    fn oracle_answers_every_template_and_spots_a_changed_byte() {
        let data = contact_data(TINY, 5);
        let infected = data
            .nt_text
            .lines()
            .filter(|l| l.ends_with("<infected> ."))
            .count();
        assert_eq!(infected, TINY.people / 10);
        for mut pool in [
            point_reads_pool(TINY),
            scan_reads_pool(),
            rw_reader_pool(TINY),
        ] {
            pool.compute_oracle(&data).unwrap();
            assert_eq!(pool.expected.len(), pool.reqs.len());
            for i in pool.warmup() {
                assert!(
                    pool.expected[i].len > 0,
                    "{} is empty",
                    pool.reqs[i].payload
                );
            }
        }
        let e = Expected::of("p1\tp2\np3\tp4\n");
        assert_eq!((e.len, e.rows), (12, 2));
        assert!(e.matches("p1\tp2\np3\tp4\n"));
        assert!(!e.matches("p1\tp2\np3\tp5\n"));
        let big = "x\n".repeat(KEEP_BODY_BELOW);
        let e = Expected::of(&big);
        assert!(e.body.is_none() && e.matches(&big));
        assert!(!e.matches(&big.replacen('x', "y", 1)));
    }

    #[test]
    fn writer_keeps_its_live_set_under_the_cap_and_deletes_only_its_own() {
        let mut w = WriterStream::new(3, 4_000);
        let mut live = std::collections::BTreeSet::new();
        let (mut inserts, mut batches, mut deletes, mut edges) = (0, 0, 0, 0);
        for _ in 0..2_000 {
            match w.next_op() {
                WriteOp::Insert { triples, edge } => {
                    inserts += 1;
                    batches += usize::from(triples.len() == BATCH);
                    edges += usize::from(edge.is_some());
                    for t in triples {
                        assert!(live.insert(t), "a triple was inserted twice");
                    }
                }
                WriteOp::Delete { triples } => {
                    deletes += 1;
                    for t in triples {
                        assert!(live.remove(&t), "deleted a triple that is not live");
                    }
                }
            }
            assert!(live.len() <= 200 + BATCH);
        }
        assert!(inserts > 0 && batches > 0 && deletes > 0 && edges > 0);
        let op = WriteOp::Insert {
            triples: vec![("w1".into(), "v1".into())],
            edge: Some(("wn1".into(), "wn0".into())),
        };
        assert_eq!(op.payload(), "<w1> <noted> <v1> .\nedge wn1 visits wn0\n");
        assert_eq!(op.ops(), 2);
    }
}
