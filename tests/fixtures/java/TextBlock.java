package fixtures;

public class TextBlock {
    private static final String BANNER = """
        Report for "users {
        """;

    public String banner() {
        return BANNER;
    }

    public String query(String id) {
        String sql = """
            SELECT * FROM t WHERE id = "%s" \""" {
            """;
        return sql.formatted(id);
    }
}
