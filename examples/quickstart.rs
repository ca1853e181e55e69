//! Quickstart: define GFDs, check satisfiability and implication,
//! sequentially and in parallel.
//!
//! Run with: `cargo run --release --example quickstart`

use gfd::prelude::*;

fn main() {
    let mut vocab = Vocab::new();

    // ── 1. Define rules in the text format ────────────────────────────
    // phi_a: every product's price equals its listed price.
    // phi_b: discounted products have price 80.
    // phi_c: discounted products have listed price 100.
    let doc = gfd::dsl::parse_document(
        r#"
        gfd phi_a {
          pattern {
            node p: product
            node l: listing
            edge p -listedAs-> l
          }
          then { p.price = l.price }
        }
        gfd phi_b {
          pattern { node p: product }
          when { p.discounted = true }
          then { p.price = 80 }
        }
        gfd phi_c {
          pattern {
            node p: product
            node l: listing
            edge p -listedAs-> l
          }
          when { p.discounted = true }
          then { l.price = 100 }
        }
        "#,
        &mut vocab,
    )
    .expect("rules parse");
    let sigma = doc.gfds;
    println!("Σ has {} GFDs:", sigma.len());
    print!("{}", sigma.display_all(&vocab));

    // ── 2. Satisfiability ──────────────────────────────────────────────
    // phi_b and phi_c interact through phi_a: a discounted, listed
    // product would need price 80 = l.price = 100. But note the premise:
    // only *discounted* products conflict, and a model may simply avoid
    // the `discounted = true` binding — so Σ is satisfiable.
    let sat = gfd::seq_sat(&sigma);
    println!("\nSeqSat: satisfiable = {}", sat.is_satisfiable());
    let model = sat.model().expect("satisfiable");
    println!(
        "model: {} nodes, {} edges, {} attributes (a Σ-bounded population of GΣ)",
        model.node_count(),
        model.edge_count(),
        model.attr_count()
    );

    // The parallel algorithm agrees and reports its run metrics.
    let par = gfd::sat_with_config(&sigma, &ReasonConfig::with_workers(4));
    println!(
        "ParSat(p=4): satisfiable = {}, units = {}, matches = {}",
        par.is_satisfiable(),
        par.stats.units_generated,
        par.stats.matches,
    );

    // ── 3. Implication ─────────────────────────────────────────────────
    // From phi_a + phi_b + phi_c: a discounted listed product implies
    // l.price = 100 AND p.price = 80 — and transitively p.price = l.price
    // = ... inconsistent! So "discounted listed products do not exist" is
    // implied: Σ |= (pattern, discounted = true → false).
    let phi = gfd::dsl::parse_gfd(
        r#"
        gfd no_discounted_listing {
          pattern {
            node p: product
            node l: listing
            edge p -listedAs-> l
          }
          when { p.discounted = true }
          then { false }
        }
        "#,
        &mut vocab,
    )
    .expect("probe parses");
    let imp = gfd::seq_imp(&sigma, &phi);
    println!("\nSeqImp: Σ |= {} ? {}", phi.name, imp.is_implied());
    let par = gfd::imp_with_config(&sigma, &phi, &ReasonConfig::with_workers(4));
    println!(
        "ParImp(p=4): agrees = {}",
        par.is_implied() == imp.is_implied()
    );

    // Something Σ does not imply:
    let free = gfd::dsl::parse_gfd(
        "gfd unrelated { pattern { node p: product } then { p.weight = 1 } }",
        &mut vocab,
    )
    .unwrap();
    println!(
        "SeqImp: Σ |= {} ? {}",
        free.name,
        gfd::seq_imp(&sigma, &free).is_implied()
    );

    // ── 4. Error detection on a data graph ─────────────────────────────
    let data = gfd::dsl::parse_document(
        r#"
        graph shop {
          node p1: product { price = 90, discounted = true }
          node l1: listing { price = 90 }
          edge p1 -listedAs-> l1
        }
        "#,
        &mut vocab,
    )
    .unwrap();
    let graph = &data.graphs[0].1;
    let violations = gfd::find_violations(graph, &sigma, 10);
    println!(
        "\nerror detection: {} violation(s) in the shop graph (phi_b: discounted price must be 80)",
        violations.len()
    );
    for v in &violations {
        println!("  violated: {}", sigma[v.gfd].display(&vocab));
    }
    assert!(!violations.is_empty());
}
