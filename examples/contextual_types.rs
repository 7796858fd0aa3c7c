//! Context-aware inference (§10's future work): learning XSD-strength
//! types, where the same element name has different content models under
//! different parents — the classic dealer/car scenario that no DTD can
//! express.
//!
//! ```sh
//! cargo run --example contextual_types
//! ```

use dtdinfer::xml::contextual::{contextual_xsd, infer_contextual};
use dtdinfer::xml::extract::Corpus;
use dtdinfer::xml::infer::{infer_dtd, InferenceEngine};

const DOCUMENTS: &[&str] = &[
    "<dealer>\
       <new><car><model>m1</model><price>1</price></car>\
            <car><model>m2</model><price>2</price></car></new>\
       <used><car><model>m3</model><mileage>90000</mileage><price>3</price></car></used>\
     </dealer>",
    "<dealer>\
       <new><car><model>m4</model><price>4</price></car></new>\
       <used><car><model>m5</model><mileage>120000</mileage><price>5</price></car>\
             <car><model>m6</model><mileage>30000</mileage><price>6</price></car></used>\
     </dealer>",
];

fn main() {
    // DTD inference must conflate the two kinds of car: one element name,
    // one content model.
    let mut flat = Corpus::new();
    for d in DOCUMENTS {
        flat.add_document(d).unwrap();
    }
    let dtd = infer_dtd(&flat, InferenceEngine::Idtd);
    println!("=== DTD inference (context-blind) ===");
    print!("{}", dtd.serialize());
    let car = dtd.alphabet.get("car").unwrap();
    if let dtdinfer::xml::dtd::ContentSpec::Children(model) = &dtd.elements[&car] {
        println!(
            "\nthe single car model must cover both kinds: {}",
            dtdinfer::regex::display::render(model, &dtd.alphabet)
        );
    }

    // Contextual inference keeps them apart: the same extractor, naming
    // each element by its parent context.
    let mut corpus = Corpus::contextual();
    for d in DOCUMENTS {
        corpus.add_document(d).unwrap();
    }
    let schema = infer_contextual(&corpus, InferenceEngine::Idtd);
    println!("\n=== contextual inference (XSD-strength) ===");
    print!("{}", schema.render());
    assert!(schema.requires_xsd());
    println!("\ncorpus requires XSD typing: {}", schema.requires_xsd());

    println!("\n=== emitted XSD (one complexType per context) ===");
    print!("{}", contextual_xsd(&schema));
}
