//! Page helpers shared by the root integration tests.

/// Wrap the content of `<body …>` in `depth` nested `<div>`s. Rendering is
/// unchanged: a `<div>` holding only block content adds no content line.
pub fn nest_body(html: &str, depth: usize) -> String {
    let open = html.find("<body").expect("page has a body");
    let content = open + html[open..].find('>').expect("body tag closes") + 1;
    let close = html.rfind("</body>").expect("page closes its body");
    format!(
        "{}{}{}{}{}",
        &html[..content],
        "<div>".repeat(depth),
        &html[content..close],
        "</div>".repeat(depth),
        &html[close..]
    )
}
