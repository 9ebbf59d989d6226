"""The W3C XQuery use-case classic: queries over a bibliography.

Demonstrates element construction, grouping-style nested FLWORs,
quantifiers and typeswitch on a small hand-written document.

Run:  python examples/bibliography.py
"""

import repro

BIB = """
<bib>
  <book year="1994">
    <title>TCP/IP Illustrated</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher><price>65.95</price>
  </book>
  <book year="1992">
    <title>Advanced Programming in the Unix environment</title>
    <author><last>Stevens</last><first>W.</first></author>
    <publisher>Addison-Wesley</publisher><price>65.95</price>
  </book>
  <book year="2000">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <author><last>Buneman</last><first>Peter</first></author>
    <author><last>Suciu</last><first>Dan</first></author>
    <publisher>Morgan Kaufmann Publishers</publisher><price>39.95</price>
  </book>
  <book year="1999">
    <title>The Economics of Technology for Digital TV</title>
    <editor><last>Gerbarg</last><first>Darcy</first></editor>
    <publisher>Kluwer Academic Publishers</publisher><price>129.95</price>
  </book>
</bib>
"""

QUERIES = {
    # use case XMP Q1: books by Addison-Wesley after 1991
    "recent Addison-Wesley books": """
        <bib>{
          for $b in /bib/book
          where $b/publisher = "Addison-Wesley" and $b/@year > 1991
          return <book year="{$b/@year}">{$b/title}</book>
        }</bib>
    """,
    # use case XMP Q4: books per author (grouping via nested FLWOR)
    "titles per author surname": """
        for $last in distinct-values(/bib/book/author/last/text())
        return <result name="{$last}">{
            for $b in /bib/book
            where $b/author/last/text() = $last
            return $b/title
        }</result>
    """,
    # quantifier: books where some author is called Stevens
    "books with author Stevens": """
        for $b in /bib/book
        where some $a in $b/author satisfies $a/last/text() = "Stevens"
        return $b/title/text()
    """,
    # typeswitch over heterogeneous creator elements
    "creators classified": """
        for $c in /bib/book/(author | editor)
        return typeswitch ($c)
               case element(author) return concat("author: ", $c/last/text())
               case element(editor) return concat("editor: ", $c/last/text())
               default return "?"
    """,
    # cheapest book via order by
    "cheapest book": """
        (for $b in /bib/book order by number($b/price/text()) return $b/title/text())[1]
    """,
}


def main() -> None:
    session = repro.connect()
    session.database.load_document("bib.xml", BIB)
    for label, query in QUERIES.items():
        try:
            out = session.execute(query).serialize()
        except Exception as exc:
            out = f"<error: {exc}>"
        print(f"== {label} ==")
        print(out)
        print()


if __name__ == "__main__":
    main()
