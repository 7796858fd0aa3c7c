//! Criterion micro-benchmarks for the substrates: XML parsing/extraction,
//! DFA-based language comparison, state elimination, and the sampler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dtdinfer_automata::dfa::regex_equiv;
use dtdinfer_automata::soa::Soa;
use dtdinfer_automata::state_elim::eliminate;
use dtdinfer_gen::generator::generate_sample;
use dtdinfer_gen::scenarios::table2;
use dtdinfer_regex::alphabet::Alphabet;
use dtdinfer_regex::parser::parse;
use dtdinfer_xml::extract::Corpus;
use std::hint::black_box;

/// Builds a synthetic XML document with `n` book records.
fn synthetic_doc(n: usize) -> String {
    let mut doc = String::from("<catalog>");
    for i in 0..n {
        doc.push_str(&format!(
            "<book id=\"{i}\"><title>Title {i}</title>\
             <author>A{i}</author><author>B{i}</author>\
             <year>19{:02}</year></book>",
            i % 100
        ));
    }
    doc.push_str("</catalog>");
    doc
}

fn bench_xml_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("xml_extract");
    for &n in &[100usize, 1000] {
        let doc = synthetic_doc(n);
        group.throughput(Throughput::Bytes(doc.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &doc, |bch, d| {
            bch.iter(|| {
                let mut corpus = Corpus::new();
                corpus.add_document(black_box(d)).expect("well-formed");
                black_box(corpus.total_sequences())
            })
        });
    }
    group.finish();
}

fn bench_dfa_equivalence(c: &mut Criterion) {
    let mut al = Alphabet::new();
    let r1 = parse("((b? (a|c))+ d)+ e", &mut al).unwrap();
    let r2 = parse("((b? (a|c)+)+ d)+ e", &mut al).unwrap();
    let mut group = c.benchmark_group("dfa");
    group.bench_function("equiv_small", |bch| {
        bch.iter(|| black_box(regex_equiv(black_box(&r1), black_box(&r2))))
    });
    // Wide-disjunction equivalence (18 symbols).
    let b = table2()[1].build();
    group.bench_function("equiv_example2", |bch| {
        bch.iter(|| {
            black_box(regex_equiv(
                black_box(&b.original),
                black_box(&b.expected_idtd),
            ))
        })
    });
    group.finish();
}

fn bench_state_elimination(c: &mut Criterion) {
    let mut al = Alphabet::new();
    let words: Vec<_> = ["bacacdacde", "cbacdbacde", "abccaadcde"]
        .iter()
        .map(|w| al.word_from_chars(w))
        .collect();
    let soa = Soa::learn(&words);
    c.bench_function("state_elim_fig1", |bch| {
        bch.iter(|| black_box(eliminate(black_box(&soa))))
    });
}

fn bench_sampler(c: &mut Criterion) {
    let b = table2()[3].build(); // 61 symbols
    let mut group = c.benchmark_group("sampler");
    group.throughput(Throughput::Elements(1000));
    group.bench_function("example4_1000", |bch| {
        bch.iter(|| black_box(generate_sample(black_box(&b.data), 1000, 7)))
    });
    group.finish();
}

fn bench_minimization(c: &mut Criterion) {
    let b = table2()[1].build(); // example2, 18 symbols
    let alpha: Vec<_> = b.original.symbols();
    let d = dtdinfer_automata::dfa::Dfa::from_regex(&b.original, &alpha);
    c.bench_function("minimize_example2", |bch| {
        bch.iter(|| black_box(black_box(&d).minimize()))
    });
}

fn bench_census(c: &mut Criterion) {
    let b = table2()[1].build();
    let alpha: Vec<_> = b.original.symbols();
    let d = dtdinfer_automata::dfa::Dfa::from_regex(&b.original, &alpha);
    c.bench_function("census_example2_len20", |bch| {
        bch.iter(|| black_box(black_box(&d).census(20)))
    });
}

fn bench_contextual(c: &mut Criterion) {
    use dtdinfer_xml::contextual::infer_contextual;
    use dtdinfer_xml::extract::Corpus;
    use dtdinfer_xml::infer::InferenceEngine;
    let mut corpus = Corpus::contextual();
    for i in 0..200 {
        let doc = format!(
            "<dealer><new><car><model/><price/></car></new>             <used><car><model/><mileage/><price/></car>{}</used></dealer>",
            if i % 2 == 0 { "<car><model/><mileage/><price/></car>" } else { "" }
        );
        corpus.add_document(&doc).expect("well-formed");
    }
    c.bench_function("contextual_dealer_200docs", |bch| {
        bch.iter(|| black_box(infer_contextual(black_box(&corpus), InferenceEngine::Crx)))
    });
}

criterion_group!(
    benches,
    bench_xml_parse,
    bench_dfa_equivalence,
    bench_state_elimination,
    bench_sampler,
    bench_minimization,
    bench_census,
    bench_contextual
);
criterion_main!(benches);
