//! Fixtures shared by the reference-oracle differential tests: the
//! calendar schema of Example 2.1 and the forum schema of the simulated
//! applications, each with its ground-truth policy.

use bep_core::{schema_of_database, Policy};
use minidb::Database;

pub fn calendar_db(attendance: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.execute_sql("CREATE TABLE Events (EId INT PRIMARY KEY, Title TEXT, Kind TEXT)")
        .unwrap();
    db.execute_sql(
        "CREATE TABLE Attendance (UId INT, EId INT, Notes TEXT, PRIMARY KEY (UId, EId))",
    )
    .unwrap();
    for e in 0..4 {
        db.execute_sql(&format!(
            "INSERT INTO Events (EId, Title, Kind) VALUES ({e}, 'title{e}', 'kind{e}')"
        ))
        .unwrap();
    }
    for (u, e) in attendance {
        let _ = db.execute_sql(&format!(
            "INSERT INTO Attendance (UId, EId, Notes) VALUES ({u}, {e}, NULL)"
        ));
    }
    db
}

pub fn calendar_policy(db: &Database) -> (qlogic::RelSchema, Policy) {
    let schema = schema_of_database(db);
    let policy = Policy::from_sql(
        &schema,
        &[
            ("V1", "SELECT EId FROM Attendance WHERE UId = ?MyUId"),
            (
                "V2",
                "SELECT * FROM Events e JOIN Attendance a ON e.EId = a.EId \
                 WHERE a.UId = ?MyUId",
            ),
        ],
    )
    .unwrap();
    (schema, policy)
}

pub fn forum_db(membership: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    for ddl in [
        "CREATE TABLE Users (UId INT PRIMARY KEY, Name TEXT NOT NULL)",
        "CREATE TABLE Groups (GId INT PRIMARY KEY, Name TEXT NOT NULL, Public BOOL NOT NULL)",
        "CREATE TABLE Membership (UId INT NOT NULL, GId INT NOT NULL, Role TEXT NOT NULL, \
         PRIMARY KEY (UId, GId))",
        "CREATE TABLE Posts (PId INT PRIMARY KEY, GId INT NOT NULL, AuthorId INT NOT NULL, \
         Title TEXT NOT NULL, Body TEXT NOT NULL)",
        "CREATE TABLE Comments (CId INT PRIMARY KEY, PId INT NOT NULL, AuthorId INT NOT NULL, \
         Body TEXT NOT NULL)",
    ] {
        db.execute_sql(ddl).unwrap();
    }
    db.execute_sql("INSERT INTO Users (UId, Name) VALUES (0, 'u0'), (1, 'u1'), (2, 'u2')")
        .unwrap();
    db.execute_sql(
        "INSERT INTO Groups (GId, Name, Public) VALUES \
         (0, 'g0', TRUE), (1, 'g1', FALSE), (2, 'g2', FALSE)",
    )
    .unwrap();
    for (u, g) in membership {
        let _ = db.execute_sql(&format!(
            "INSERT INTO Membership (UId, GId, Role) VALUES ({u}, {g}, 'member')"
        ));
    }
    db.execute_sql(
        "INSERT INTO Posts (PId, GId, AuthorId, Title, Body) VALUES \
         (10, 0, 0, 't10', 'b10'), (11, 1, 1, 't11', 'b11'), (12, 2, 2, 't12', 'b12')",
    )
    .unwrap();
    db.execute_sql(
        "INSERT INTO Comments (CId, PId, AuthorId, Body) VALUES \
         (100, 10, 0, 'c100'), (101, 11, 1, 'c101')",
    )
    .unwrap();
    db
}

/// The forum ground-truth policy (mirrors `appsim::forum::FORUM`).
pub fn forum_policy(db: &Database) -> (qlogic::RelSchema, Policy) {
    let schema = schema_of_database(db);
    let policy = Policy::from_sql(
        &schema,
        &[
            ("PostGroups", "SELECT PId, GId FROM Posts"),
            (
                "MyMemberships",
                "SELECT GId FROM Membership WHERE UId = ?MyUId",
            ),
            (
                "MyGroups",
                "SELECT g.GId, g.Name FROM Groups g \
                 JOIN Membership m ON g.GId = m.GId WHERE m.UId = ?MyUId",
            ),
            (
                "PublicGroups",
                "SELECT GId, Name FROM Groups WHERE Public = TRUE",
            ),
            (
                "GroupPosts",
                "SELECT p.PId, p.GId, p.Title, p.Body, p.AuthorId FROM Posts p \
                 JOIN Membership m ON p.GId = m.GId WHERE m.UId = ?MyUId",
            ),
            (
                "GroupComments",
                "SELECT c.CId, c.PId, c.AuthorId, c.Body FROM Comments c \
                 JOIN Posts p ON c.PId = p.PId \
                 JOIN Membership m ON p.GId = m.GId WHERE m.UId = ?MyUId",
            ),
        ],
    )
    .unwrap();
    (schema, policy)
}
